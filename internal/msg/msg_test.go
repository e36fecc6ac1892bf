package msg

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"consensusinside/internal/wire"
)

// TestKindsAreUniqueAndStable walks the codec registry: every registered
// type has a kind name no other type shares, and a field list no other
// type repeats — two types with one payload are one kind under two
// names (merge them) unless samePayload gives the reason.
func TestKindsAreUniqueAndStable(t *testing.T) {
	samePayload := map[[2]string]string{
		{"SlotNack", "SlotPrepare"}: "a one-slot prepare and its refusal: different roles",
		{"TPCCommit", "TPCPrepare"}: "2PC's two phases",
	}
	kinds := map[string]string{}  // kind → type name
	shapes := map[string]string{} // field list → type name
	for _, wt := range wireTypes {
		c := wire.NewReader(nil)
		m := wt.dec(&c)
		typ := reflect.TypeOf(m)
		k := m.Kind()
		if k == "" {
			t.Errorf("%s has an empty kind", typ.Name())
		}
		if prev, ok := kinds[k]; ok {
			t.Errorf("kind %q names both %s and %s", k, prev, typ.Name())
		}
		kinds[k] = typ.Name()
		var fields []string
		for i := range typ.NumField() {
			fields = append(fields, typ.Field(i).Name+" "+typ.Field(i).Type.String())
		}
		shape := strings.Join(fields, "; ")
		if prev, ok := shapes[shape]; ok {
			pair := [2]string{prev, typ.Name()}
			slices.Sort(pair[:])
			if samePayload[pair] == "" {
				t.Errorf("%s and %s are both {%s}: merge them, or list the pair in samePayload with its reason", prev, typ.Name(), shape)
			}
			delete(samePayload, pair)
		}
		shapes[shape] = typ.Name()
	}
	for pair := range samePayload {
		t.Errorf("samePayload lists %v, which are not two registered types with one field list", pair)
	}
}

func TestOpString(t *testing.T) {
	tests := []struct {
		op   Op
		want string
	}{
		{OpNoop, "noop"},
		{OpPut, "put"},
		{OpGet, "get"},
		{Op(42), "op(42)"},
	}
	for _, tc := range tests {
		if got := tc.op.String(); got != tc.want {
			t.Errorf("Op(%d).String() = %q, want %q", int(tc.op), got, tc.want)
		}
	}
}

func TestValueIsZero(t *testing.T) {
	if !(Value{}).IsZero() {
		t.Error("zero value must report IsZero")
	}
	if (Value{Client: 1, Seq: 1, Cmd: Command{Op: OpPut}}).IsZero() {
		t.Error("real value must not report IsZero")
	}
	if (Value{Batch: []BatchEntry{{Seq: 1}}}).IsZero() {
		t.Error("batched value must not report IsZero")
	}
}

func TestValueBatchViews(t *testing.T) {
	single := Value{Client: 3, Seq: 7, Cmd: Command{Op: OpPut, Key: "k", Val: "v"}, Ack: 5}
	if single.Len() != 1 {
		t.Fatalf("single Len = %d", single.Len())
	}
	if be := single.EntryAt(0); be.Seq != 7 || be.Cmd != single.Cmd {
		t.Fatalf("single EntryAt(0) = %+v", be)
	}

	entries := []BatchEntry{
		{Seq: 7, Cmd: Command{Op: OpPut, Key: "a", Val: "1"}},
		{Seq: 8, Cmd: Command{Op: OpGet, Key: "b"}},
		{Seq: 9, Cmd: Command{Op: OpPut, Key: "c", Val: "3"}},
	}
	batched := NewValue(3, 5, entries)
	if batched.Seq != 7 || batched.Len() != 3 || len(batched.Batch) != 3 {
		t.Fatalf("batched = %+v", batched)
	}
	for i := range entries {
		if be := batched.EntryAt(i); be != entries[i] {
			t.Errorf("EntryAt(%d) = %+v, want %+v", i, be, entries[i])
		}
	}

	if one := NewValue(3, 5, entries[:1]); len(one.Batch) != 0 || one.Cmd != entries[0].Cmd {
		t.Errorf("NewValue with one entry must stay unbatched: %+v", one)
	}
	if req := NewRequest(3, 5, entries); req.Seq != 7 || len(req.Batch) != 3 {
		t.Errorf("NewRequest = %+v", req)
	}
	if one := NewRequest(3, 5, entries[:1]); len(one.Batch) != 0 || one.Seq != 7 || one.Cmd != entries[0].Cmd {
		t.Errorf("NewRequest with one entry must stay unbatched: %+v", one)
	}
}

func TestValueEqual(t *testing.T) {
	entries := []BatchEntry{{Seq: 1, Cmd: Command{Op: OpPut, Key: "k"}}, {Seq: 2, Cmd: Command{Op: OpGet, Key: "k"}}}
	a := NewValue(1, 0, entries)
	b := NewValue(1, 0, append([]BatchEntry(nil), entries...))
	if !a.Equal(b) {
		t.Error("identical batches must compare equal")
	}
	c := NewValue(1, 0, []BatchEntry{entries[0], {Seq: 3, Cmd: Command{Op: OpGet, Key: "k"}}})
	if a.Equal(c) {
		t.Error("different batches must not compare equal")
	}
	if a.Equal(Value{Client: 1, Seq: 1, Cmd: entries[0].Cmd}) {
		t.Error("batched vs single must not compare equal")
	}
}

func TestUtilEntryIsZero(t *testing.T) {
	if !(UtilEntry{}).IsZero() {
		t.Error("zero entry must report IsZero")
	}
	if (UtilEntry{Type: EntryLeaderChange}).IsZero() {
		t.Error("typed entry must not report IsZero")
	}
}
