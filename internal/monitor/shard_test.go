package monitor

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/transport"
)

// A memory borrow is keyed by its recipient window and a device borrow
// by the sub-MN's pre-minted alloc id, so the two can share one
// (Recipient, RecipientBase) pair. A cancellation must tear down only
// the delegation of its own kind.
func TestBorrowCancelKeepsKindsApart(t *testing.T) {
	const (
		recipient = fabric.NodeID(1)
		key       = uint64(7)
	)
	for _, tc := range []struct {
		name         string
		kind         Resource
		gone, stayed int
	}{
		{"device cancel", DevAccelerator, 2, 1},
		{"memory cancel", Memory, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New()
			defer eng.Close()
			p := sim.Default()
			net := fabric.NewNetwork(eng, &p, fabric.Pair(), sim.NewRNG(1))
			rt := NewRoot(transport.NewEndpoint(eng, &p, net, 0))
			// No rack is registered, so tearing a delegation down costs no
			// RPC (its backing counts as root.free_leaked).
			rt.dels[1] = &Delegation{ID: 1, Recipient: recipient, RecipientBase: key, Size: 1 << 20, Kind: Memory}
			rt.dels[2] = &Delegation{ID: 2, Recipient: recipient, RecipientBase: key, Size: 1, Kind: DevAccelerator}
			eng.Go("cancel", func(pr *sim.Proc) {
				rt.onBorrowCancel(pr, recipient, &borrowCancelReq{Recipient: recipient, RecipientBase: key, Kind: tc.kind})
			})
			eng.Run()
			if _, ok := rt.dels[tc.gone]; ok {
				t.Errorf("delegation %d survived its own kind's cancel", tc.gone)
			}
			if _, ok := rt.dels[tc.stayed]; !ok {
				t.Errorf("delegation %d of the other kind was torn down", tc.stayed)
			}
			if got := rt.Stats.Get("root.borrows_cancelled"); got != 1 {
				t.Errorf("root.borrows_cancelled = %d, want 1", got)
			}
		})
	}
}
