//go:build !msgpoison

package msg

// poisoned is false in a normal build: Release zeroes boxes.
const poisoned = false

func stale(Message) bool { return false }
