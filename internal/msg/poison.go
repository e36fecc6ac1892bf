//go:build msgpoison

package msg

// poisoned is true under -tags msgpoison: Release overwrites boxes with
// poison (see pool.go).
const poisoned = true

// stale reports whether box m already carries Release's poison: it was
// released before and not drawn since.
func stale(m Message) bool {
	switch m := m.(type) {
	case *ClientRequest:
		return m.Client == poisonNode
	case *Accept:
		return m.Value.Client == poisonNode
	case *Learn:
		return len(m.Entries) > 0 && m.Entries[0].Value.Client == poisonNode
	case *ClientReplyBatch:
		return len(m.Replies) > 0 && m.Replies[0].Redirect == poisonNode
	case *ReadRequest:
		return m.Client == poisonNode
	case *ReadReplyBatch:
		return len(m.Replies) > 0 && m.Replies[0].Redirect == poisonNode
	}
	return false
}
