//go:build msgpoison

package msg

import "testing"

// TestPoisonOverwritesReleasedBoxes: under msgpoison a released box
// reads as poison — a receiver that kept one sees ids, instances and
// keys no live message carries — and releasing it again panics.
func TestPoisonOverwritesReleasedBoxes(t *testing.T) {
	req := BoxRequest(ClientRequest{Client: 3, Seq: 7, Cmd: Command{Op: OpPut, Key: "k"}})
	Release(req)
	if req.Client != poisonNode || req.Cmd.Key != poisonCmd.Key {
		t.Errorf("a released request reads %+v, want poison", *req)
	}
	l := DrawLearn()
	l.Entries = append(l.Entries, Proposal{Instance: 4})
	Release(l)
	if len(l.Entries) != 1 || l.Entries[0].Instance != poisonProposal.Instance {
		t.Errorf("a released learn reads %+v, want one poisoned entry", l.Entries)
	}
	a := DrawAccept(5, 1, Value{Client: 2})
	Release(a)
	if a.Instance != poisonProposal.Instance || a.Value.Client != poisonNode {
		t.Errorf("a released accept reads %+v, want poison", *a)
	}
	for _, m := range []Message{req, l, a} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("releasing a %T twice did not panic", m)
				}
			}()
			Release(m)
		}()
	}
	// A draw overwrites the poison.
	if r := DrawReadRequest(1, 0); r.Client != 1 || len(r.Entries) != 0 {
		t.Errorf("a drawn read request reads %+v", *r)
	}
}
