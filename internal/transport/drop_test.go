package transport

import (
	"testing"

	"repro/internal/sim"
)

// A packet from a peer must never crash the receiving node. An
// unregistered raw kind, a call to a service the node does not run and a
// QPair message for a pair it never opened are each dropped and counted.

func TestUnhandledRawPacketIsCountedDrop(t *testing.T) {
	r := newRig(t)
	r.eng.Schedule(0, func() { r.a.SendRaw(1, "nobody.listens", 64, "payload") })
	r.eng.Run()
	if got := r.b.Stats.Get("drop.no_handler"); got != 1 {
		t.Fatalf("drop.no_handler = %d, want 1", got)
	}
}

func TestUnknownCallIsCountedDrop(t *testing.T) {
	r := newRig(t)
	answered := true
	r.eng.Go("caller", func(p *sim.Proc) {
		_, answered = r.a.CallTimeout(p, 1, "no.such.service", 16, nil, sim.Millisecond)
	})
	r.eng.Run()
	if answered {
		t.Fatal("a call to an unregistered service was answered")
	}
	if got := r.b.Stats.Get("drop.no_call_handler"); got != 1 {
		t.Fatalf("drop.no_call_handler = %d, want 1", got)
	}
}

func TestUnknownQPairIsCountedDrop(t *testing.T) {
	r := newRig(t)
	r.eng.Schedule(0, func() { r.a.SendRaw(1, "qp.msg", 64, &qpMsg{dstQID: 99, size: 64}) })
	r.eng.Run()
	if got := r.b.Stats.Get("drop.unknown_qpair"); got != 1 {
		t.Fatalf("drop.unknown_qpair = %d, want 1", got)
	}
}
