package network

import (
	"errors"
	"slices"
	"testing"

	"flexsim/internal/message"
	"flexsim/internal/routing"
	"flexsim/internal/topology"
)

// TestRestoreStateChecksWants: a blocked header is not re-routed until a
// wanted VC frees, so RestoreState must install exactly the candidate set
// the routing relation offers — under the current fault set — and reject
// anything else with a WantsMismatchError naming the true set.
func TestRestoreStateChecksWants(t *testing.T) {
	topo := topology.MustNew(4, 1, false) // unidirectional 4-ring
	ch01 := chanBetween(t, topo, 0, 1)
	ch12 := chanBetween(t, topo, 1, 2)
	cases := []struct {
		name   string
		lockV0 bool // lock VC 0 of the wanted channel first
		wants  []int
		want   []int // the routed set; nil when wants must be accepted
	}{
		{name: "routed set", wants: []int{0, 1}},
		{name: "subset", wants: []int{0}, want: []int{0, 1}},
		{name: "reordered", wants: []int{1, 0}, want: []int{0, 1}},
		{name: "live set under a VC lockout", lockV0: true, wants: []int{1}},
		{name: "locked VC still listed", lockV0: true, wants: []int{0, 1}, want: []int{1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := mustNet(t, topo, 2, 2, routing.DOR{})
			if tc.lockV0 {
				n.SetVCDown(ch12, 0)
			}
			vcsOf := func(idx []int) []message.VC {
				var out []message.VC
				for _, v := range idx {
					out = append(out, n.NetVC(ch12, v))
				}
				return out
			}
			// One worm 0->2 with its header parked at node 1.
			im := InjectedMessage{
				ID: 0, Src: 0, Dst: 2, Len: 8,
				Path: []message.VC{n.InjVC(0), n.NetVC(ch01, 0)}, Occ: []int32{1, 2},
				SrcRemaining: 5,
				Blocked:      true, Wants: vcsOf(tc.wants),
			}
			err := n.RestoreState(10, []InjectedMessage{im})
			if tc.want == nil {
				if err != nil {
					t.Fatal(err)
				}
				if m := n.ActiveMessages()[0]; !m.Blocked || !slices.Equal(m.Wants, im.Wants) {
					t.Fatalf("installed blocked=%v wants=%v, want %v", m.Blocked, m.Wants, im.Wants)
				}
				return
			}
			var mismatch *WantsMismatchError
			if !errors.As(err, &mismatch) {
				t.Fatalf("err = %v, want a WantsMismatchError", err)
			}
			if !slices.Equal(mismatch.Want, vcsOf(tc.want)) {
				t.Errorf("mismatch reports routed set %v, want %v", mismatch.Want, vcsOf(tc.want))
			}
			if n.ActiveCount() != 0 {
				t.Error("rejected restore left state behind")
			}
		})
	}
}
