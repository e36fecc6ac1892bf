//go:build race

package client

// raceEnabled: the race detector makes sync.Pool drop a random quarter
// of its Puts, so a test that counts a pool's allocations skips.
const raceEnabled = true
