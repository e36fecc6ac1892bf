package cluster

import (
	"testing"
	"time"
)

// TestPausedRecoveryRejoins boots replica 2 in recovery mode and pauses
// its core from 1 µs to 5 ms: the answer to its first catch-up request
// reaches a paused core and is dropped, and its first retry timer comes
// due meanwhile and fires only at Recover: simnet keeps a paused core's
// timers, and no engine or recovery code knows about the pause. The
// replica must still rejoin — recovered, applying (log engines), and
// the group serving thousands of ops, which for Mencius also means the
// rejoined owner skips its instances again.
func TestPausedRecoveryRejoins(t *testing.T) {
	for _, p := range Protocols() {
		t.Run(p.String(), func(t *testing.T) {
			spec := baseSpec(p, 2)
			spec.RecoverNodes = []int{2}
			spec.AcceptTimeout = time.Millisecond
			spec.TxRetryTimeout = time.Millisecond
			spec.RetryTimeout = 2 * time.Millisecond
			c := MustBuild(spec)
			paused := c.ServerIDs[2]
			c.Net.At(time.Microsecond, func() { c.Net.Crash(paused) })
			c.Net.At(5*time.Millisecond, func() { c.Net.Recover(paused) })
			c.Start()
			c.RunFor(100 * time.Millisecond)

			srv := c.Servers[2]
			if !srv.Recovered() {
				t.Error("the paused replica never recovered")
			}
			if srv.Log() != nil && srv.Commits() == 0 {
				t.Error("the paused replica applied nothing")
			}
			done := c.ClientStats().Completed
			if done <= 1000 {
				t.Errorf("the group completed %d ops, want more than 1000", done)
			}
			t.Logf("%d ops completed, %d applied by the paused replica", done, srv.Commits())
			if err := c.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
