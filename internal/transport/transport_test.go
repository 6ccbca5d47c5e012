package transport

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// rig is a two-node test fixture: node 0 and node 1 directly connected.
type rig struct {
	eng *sim.Engine
	p   sim.Params
	net *fabric.Network
	a   *Endpoint // node 0
	b   *Endpoint // node 1
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.New()
	t.Cleanup(eng.Close)
	p := sim.Default()
	net := fabric.NewNetwork(eng, &p, fabric.Pair(), sim.NewRNG(1))
	return &rig{
		eng: eng,
		p:   p,
		net: net,
		a:   NewEndpoint(eng, &p, net, 0),
		b:   NewEndpoint(eng, &p, net, 1),
	}
}

func TestCRMAFillRoundTrip(t *testing.T) {
	r := newRig(t)
	// Node 0 maps a 1 MiB window at 0x1_0000_0000 onto node 1's 0x4000_0000.
	if _, err := r.a.CRMA.Map(0x1_0000_0000, 1<<20, 1, 0x4000_0000); err != nil {
		t.Fatal(err)
	}
	r.b.CRMA.Export(0, 0x1_0000_0000, 1<<20, 0x4000_0000)

	var lat sim.Dur
	r.eng.Go("filler", func(p *sim.Proc) {
		t0 := p.Now()
		r.a.CRMA.Fill(p, 0x1_0000_0000, 64)
		lat = p.Now().Sub(t0)
	})
	r.eng.Run()

	if r.a.CRMA.Stats.Fills != 1 || r.b.CRMA.Stats.Served != 1 {
		t.Fatalf("fills=%d served=%d", r.a.CRMA.Stats.Fills, r.b.CRMA.Stats.Served)
	}
	// Expected RTT: 2 hops (req 16B + resp 64B) + 3 CRMA logic crossings
	// (requester capture/packetize, donor lookup+service, requester
	// de-packetize) + donor DRAM access.
	want := r.p.HopLatency() + r.p.Serialize(16) +
		r.p.HopLatency() + r.p.Serialize(64) +
		3*r.p.CRMALogic + r.p.DRAMLat
	if lat != want {
		t.Fatalf("fill latency = %v, want %v", lat, want)
	}
	// Table 1-scale check: a remote cacheline fill should land in the
	// ~3µs band that makes the paper's 2-3x remote-memory slowdowns
	// plausible.
	if lat < 2500*sim.Nanosecond || lat > 4000*sim.Nanosecond {
		t.Fatalf("fill latency %v outside the expected 2.5-4µs band", lat)
	}
}

func TestCRMAWriteRoundTrip(t *testing.T) {
	r := newRig(t)
	if _, err := r.a.CRMA.Map(0x1_0000_0000, 1<<20, 1, 0x4000_0000); err != nil {
		t.Fatal(err)
	}
	r.b.CRMA.Export(0, 0x1_0000_0000, 1<<20, 0x4000_0000)
	done := false
	r.eng.Go("writer", func(p *sim.Proc) {
		r.a.CRMA.Write(p, 0x1_0000_0040, 64)
		done = true
	})
	r.eng.Run()
	if !done {
		t.Fatal("write never acknowledged")
	}
	if r.a.CRMA.Stats.Writes != 1 {
		t.Fatalf("writes = %d", r.a.CRMA.Stats.Writes)
	}
}

func TestCRMAMapValidation(t *testing.T) {
	r := newRig(t)
	if _, err := r.a.CRMA.Map(0x1000, 0, 1, 0); err == nil {
		t.Fatal("zero-size mapping accepted")
	}
	if _, err := r.a.CRMA.Map(0x1000, 0x1000, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.a.CRMA.Map(0x1800, 0x1000, 1, 0); err == nil {
		t.Fatal("overlapping mapping accepted")
	}
	// Adjacent is fine.
	if _, err := r.a.CRMA.Map(0x2000, 0x1000, 1, 0); err != nil {
		t.Fatal(err)
	}
}

func TestCRMALookupTranslateUnmap(t *testing.T) {
	r := newRig(t)
	e, err := r.a.CRMA.Map(0x1_0000_0000, 0x4000, 1, 0x9000_0000)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := r.a.CRMA.Lookup(0x1_0000_2000)
	if !ok || got != e {
		t.Fatal("Lookup missed mapped address")
	}
	if _, ok := r.a.CRMA.Lookup(0x1_0000_4000); ok {
		t.Fatal("Lookup hit one past the window end")
	}
	if want := uint64(0x9000_2000); e.translate(0x1_0000_2000) != want {
		t.Fatalf("translate = %#x, want %#x", e.translate(0x1_0000_2000), want)
	}
	r.a.CRMA.Unmap(e)
	if _, ok := r.a.CRMA.Lookup(0x1_0000_2000); ok {
		t.Fatal("Lookup hit an unmapped entry")
	}
}

func TestCRMAUnmappedAccessPanics(t *testing.T) {
	r := newRig(t)
	defer func() {
		if recover() == nil {
			t.Fatal("unmapped access did not panic")
		}
	}()
	r.a.CRMA.FillAsync(0xDEAD_0000, 64)
}

func TestRDMAReadStreamsChunks(t *testing.T) {
	r := newRig(t)
	var lat sim.Dur
	const size = 64 << 10 // 16 chunks of 4 KiB
	r.eng.Go("dma", func(p *sim.Proc) {
		t0 := p.Now()
		r.a.RDMA.Read(p, 1, 0x4000_0000, size)
		lat = p.Now().Sub(t0)
	})
	r.eng.Run()
	if r.a.RDMA.Stats.Reads != 1 {
		t.Fatalf("reads = %d", r.a.RDMA.Stats.Reads)
	}
	if r.a.RDMA.Stats.BytesIn != size {
		t.Fatalf("bytes in = %d, want %d", r.a.RDMA.Stats.BytesIn, size)
	}
	// The transfer must be bandwidth-dominated: at least the pure wire
	// time, below wire time plus generous fixed overheads.
	wire := sim.Dur(16) * r.p.Serialize(4096)
	if lat < wire {
		t.Fatalf("latency %v below wire time %v", lat, wire)
	}
	if lat > wire+50*sim.Microsecond {
		t.Fatalf("latency %v way above wire time %v", lat, wire)
	}
}

func TestRDMAWriteCompletes(t *testing.T) {
	r := newRig(t)
	ok := false
	r.eng.Go("dma", func(p *sim.Proc) {
		r.a.RDMA.Write(p, 1, 0x4000_0000, 12<<10)
		ok = true
	})
	r.eng.Run()
	if !ok {
		t.Fatal("write never completed")
	}
	if r.a.RDMA.Stats.Writes != 1 {
		t.Fatalf("writes = %d", r.a.RDMA.Stats.Writes)
	}
	// 12 KiB out in 3 chunks.
	if r.a.RDMA.Stats.BytesOut != 12<<10 {
		t.Fatalf("bytes out = %d", r.a.RDMA.Stats.BytesOut)
	}
}

func TestRDMABeatsCRMAForBulk(t *testing.T) {
	r := newRig(t)
	if _, err := r.a.CRMA.Map(0x1_0000_0000, 1<<20, 1, 0x4000_0000); err != nil {
		t.Fatal(err)
	}
	r.b.CRMA.Export(0, 0x1_0000_0000, 1<<20, 0x4000_0000)
	const size = 256 << 10
	var crmaT, rdmaT sim.Dur
	r.eng.Go("compare", func(p *sim.Proc) {
		t0 := p.Now()
		for off := 0; off < size; off += 64 {
			r.a.CRMA.Fill(p, 0x1_0000_0000+uint64(off), 64)
		}
		crmaT = p.Now().Sub(t0)
		t1 := p.Now()
		r.a.RDMA.Read(p, 1, 0x4000_0000, size)
		rdmaT = p.Now().Sub(t1)
	})
	r.eng.Run()
	if rdmaT*10 > crmaT {
		t.Fatalf("RDMA (%v) should be >10x faster than serial CRMA fills (%v) for bulk", rdmaT, crmaT)
	}
}

func TestQPairSendRecv(t *testing.T) {
	r := newRig(t)
	qa, qb := ConnectQPair(r.a, r.b, QPairConfig{})
	var got *Message
	r.eng.Go("server", func(p *sim.Proc) {
		got = qb.Recv(p)
	})
	r.eng.Go("client", func(p *sim.Proc) {
		qa.Send(p, 256, "hello")
	})
	r.eng.Run()
	if got == nil || got.Data.(string) != "hello" || got.From != 0 || got.Size != 256 {
		t.Fatalf("got %+v", got)
	}
	if qa.Stats.Sent != 1 || qb.Stats.Received != 1 {
		t.Fatalf("sent=%d received=%d", qa.Stats.Sent, qb.Stats.Received)
	}
}

func TestQPairPingPongRTT(t *testing.T) {
	r := newRig(t)
	qa, qb := ConnectQPair(r.a, r.b, QPairConfig{})
	var rtt sim.Dur
	r.eng.Go("server", func(p *sim.Proc) {
		qb.Recv(p)
		qb.Send(p, 64, "pong")
	})
	r.eng.Go("client", func(p *sim.Proc) {
		t0 := p.Now()
		qa.Send(p, 64, "ping")
		qa.Recv(p)
		rtt = p.Now().Sub(t0)
	})
	r.eng.Run()
	// RTT must include 4 software crossings, 2 doorbells, 2 hops.
	minRTT := 4*r.p.QPairSWSend + 2*r.p.QPairDoor + 2*r.p.HopLatency()
	if rtt < minRTT {
		t.Fatalf("RTT %v below floor %v", rtt, minRTT)
	}
	if rtt > minRTT+10*sim.Microsecond {
		t.Fatalf("RTT %v way above floor %v", rtt, minRTT)
	}
}

func TestQPairFlowControlBlocksSender(t *testing.T) {
	r := newRig(t)
	qa, qb := ConnectQPair(r.a, r.b, QPairConfig{Window: 4, CreditBatch: 2})
	const n = 32
	r.eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			qa.Send(p, 1024, i)
		}
	})
	r.eng.Go("receiver", func(p *sim.Proc) {
		p.Sleep(200 * sim.Microsecond) // let the window fill
		for i := 0; i < n; i++ {
			m := qb.Recv(p)
			if m.Data.(int) != i {
				t.Errorf("out of order: got %v at %d", m.Data, i)
			}
		}
	})
	r.eng.Run()
	if qa.Stats.CreditStall == 0 {
		t.Fatal("sender never stalled despite a 4-message window")
	}
	if qb.Stats.CreditsSent == 0 {
		t.Fatal("receiver never returned credits")
	}
	if qb.Stats.Received != n {
		t.Fatalf("received %d, want %d", qb.Stats.Received, n)
	}
}

func TestQPairCreditsViaCRMAReduceStall(t *testing.T) {
	run := func(viaCRMA bool) sim.Dur {
		r := newRig(t)
		qa, qb := ConnectQPair(r.a, r.b, QPairConfig{Window: 8, CreditBatch: 2, CreditViaCRMA: viaCRMA})
		const n = 200
		var elapsed sim.Dur
		r.eng.Go("sender", func(p *sim.Proc) {
			t0 := p.Now()
			for i := 0; i < n; i++ {
				qa.Send(p, 64, nil)
			}
			elapsed = p.Now().Sub(t0)
		})
		r.eng.Go("receiver", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				qb.Recv(p)
			}
		})
		r.eng.Run()
		return elapsed
	}
	qpairPath := run(false)
	crmaPath := run(true)
	if crmaPath >= qpairPath {
		t.Fatalf("CRMA credit path (%v) not faster than QPair credit path (%v)", crmaPath, qpairPath)
	}
}

func TestQPairReorderBuffer(t *testing.T) {
	r := newRig(t)
	qa, qb := ConnectQPair(r.a, r.b, QPairConfig{})
	_ = qa
	// Deliver seq 2, 1, 0 by hand as if the fabric reordered them.
	r.eng.Schedule(0, func() {
		qb.injectOutOfOrder(0, &qpMsg{dstQID: qb.id, seq: 2, size: 1, data: "c"})
		qb.injectOutOfOrder(0, &qpMsg{dstQID: qb.id, seq: 1, size: 1, data: "b"})
		qb.injectOutOfOrder(0, &qpMsg{dstQID: qb.id, seq: 0, size: 1, data: "a"})
	})
	var got string
	r.eng.Go("rx", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			got += qb.Recv(p).Data.(string)
		}
	})
	r.eng.Run()
	if got != "abc" {
		t.Fatalf("reordered delivery %q, want \"abc\"", got)
	}
	if qb.Stats.OutOfOrder != 2 {
		t.Fatalf("OutOfOrder = %d, want 2", qb.Stats.OutOfOrder)
	}
}

func TestEndpointRPC(t *testing.T) {
	r := newRig(t)
	r.b.HandleCall("echo", func(p *sim.Proc, from fabric.NodeID, req any) (any, int) {
		p.Sleep(5 * sim.Microsecond) // service time
		return req.(string) + "!", 64
	})
	var resp any
	r.eng.Go("caller", func(p *sim.Proc) {
		resp = r.a.Call(p, 1, "echo", 64, "hi")
	})
	r.eng.Run()
	if resp != "hi!" {
		t.Fatalf("resp = %v", resp)
	}
}

func TestEndpointRawHandler(t *testing.T) {
	r := newRig(t)
	var seen *fabric.Packet
	r.b.Handle("custom.kind", func(pkt *fabric.Packet) { seen = pkt })
	r.eng.Schedule(0, func() { r.a.SendRaw(1, "custom.kind", 128, "payload") })
	r.eng.Run()
	if seen == nil || seen.Payload.(string) != "payload" {
		t.Fatal("raw handler not invoked")
	}
}

func TestAdviseMatchesFig17Strengths(t *testing.T) {
	cases := []struct {
		size    int
		pattern Pattern
		want    Channel
	}{
		{64, PatternRandom, ChanCRMA},          // in-memory DB random access
		{1 << 20, PatternContiguous, ChanRDMA}, // CC contiguous scans
		{256, PatternMessage, ChanQPair},       // iperf message passing
		{64, PatternContiguous, ChanCRMA},      // tiny contiguous: still cacheline
		{1 << 20, PatternRandom, ChanRDMA},     // huge random block: DMA amortizes
	}
	for _, c := range cases {
		if got := Advise(c.size, c.pattern); got != c.want {
			t.Errorf("Advise(%d, %v) = %v, want %v", c.size, c.pattern, got, c.want)
		}
	}
}

func TestChannelAndPatternStrings(t *testing.T) {
	if ChanCRMA.String() != "CRMA" || ChanRDMA.String() != "RDMA" || ChanQPair.String() != "QPair" {
		t.Fatal("channel names wrong")
	}
	if PatternRandom.String() != "random" || PatternMessage.String() != "message" {
		t.Fatal("pattern names wrong")
	}
	if Channel(99).String() != "unknown" || Pattern(99).String() != "unknown" {
		t.Fatal("unknown names wrong")
	}
}

func TestMemServiceScalesWithSize(t *testing.T) {
	p := sim.Default()
	m := flatDRAM{&p}
	small := m.Service(0, 64, false)
	big := m.Service(0, 4096, false)
	if big <= small {
		t.Fatalf("4KiB service %v not slower than 64B %v", big, small)
	}
}
