package obs

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/sim"
)

// State is one JSON-marshallable snapshot of a live cluster's control
// plane: the registry (donors), the allocation table (leases), link
// telemetry, and the MN scoreboard. Snapshots are built ON the
// simulation goroutine (SnapshotFlat reads monitor state that only that
// goroutine may touch) and handed to readers through a StateCell.
type State struct {
	Now   sim.Time `json:"now_ns"`
	Shape string   `json:"shape"` // "flat"

	Donors    []DonorState         `json:"donors"`
	Leases    []monitor.Allocation `json:"leases"`
	Links     []monitor.LinkStatus `json:"links,omitempty"`
	Telemetry TelemetrySummary     `json:"telemetry"`
	Stats     map[string]int64     `json:"stats,omitempty"`
}

// DonorState is the JSON face of one RRT row.
type DonorState struct {
	Node      int            `json:"node"`
	IdleBytes uint64         `json:"idle_bytes"`
	Devices   map[string]int `json:"devices,omitempty"`
	LastBeat  sim.Time       `json:"last_beat_ns"`
	Beats     int64          `json:"beats"`
	Dead      bool           `json:"dead,omitempty"`
}

// TelemetrySummary is the JSON face of the placement View: per-donor
// live-allocation load plus whether windowed link telemetry is
// flowing.
type TelemetrySummary struct {
	HasTelemetry bool        `json:"has_telemetry"`
	Load         map[int]int `json:"load,omitempty"`
}

// SnapshotFlat captures a flat cluster's control plane: the MN's
// RRT/RAT, link table and telemetry view. Call only from the simulation
// goroutine.
func SnapshotFlat(c *core.Cluster) *State {
	m := c.MN
	st := &State{
		Now:   c.Eng.Now(),
		Shape: "flat",
		Stats: scoreboardMap(&m.Stats),
	}
	for _, reg := range m.Registrations() {
		d := DonorState{
			Node: int(reg.Node), IdleBytes: reg.IdleBytes,
			LastBeat: reg.LastBeat, Beats: reg.Beats, Dead: reg.Dead,
		}
		if len(reg.Devices) > 0 {
			d.Devices = make(map[string]int, len(reg.Devices))
			for k, n := range reg.Devices {
				d.Devices[k.String()] = n
			}
		}
		st.Donors = append(st.Donors, d)
	}
	st.Leases = append(st.Leases, m.Allocations()...) // nil, not [], when empty
	st.Links = m.Links()
	v := m.View()
	st.Telemetry.HasTelemetry = v.HasTelemetry
	if len(v.Load) > 0 {
		st.Telemetry.Load = make(map[int]int, len(v.Load))
		for id, n := range v.Load {
			st.Telemetry.Load[int(id)] = n
		}
	}
	return st
}

// scoreboardMap copies a scoreboard into a plain map.
func scoreboardMap(sb *sim.Scoreboard) map[string]int64 {
	out := make(map[string]int64)
	for _, k := range sb.Keys() {
		out[k] = sb.Get(k)
	}
	return out
}

// StateCell hands snapshots from the simulation goroutine to HTTP
// readers: Set swaps the pointer atomically, Get returns the latest
// (possibly nil before the first Set). Readers must treat the State
// as immutable.
type StateCell struct {
	p atomic.Pointer[State]
}

// Set publishes a new snapshot.
func (c *StateCell) Set(s *State) { c.p.Store(s) }

// Get returns the latest snapshot, or nil before the first Set.
func (c *StateCell) Get() *State { return c.p.Load() }
