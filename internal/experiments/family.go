package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/harness"
	"repro/internal/sim"
)

// The serving families (serving, rack scale, churn, inference, tenancy)
// share one harness shape. A sweep cell runs as Shards independent
// trials of one scenario config that differ only in their arrival-stream
// seed; assembly folds each cell's shard trials into one result row,
// rebuilding and merging their latency histograms exactly
// (sim.LatencyHist's merge is integral), so any harness worker count
// renders byte-identical tables.

// cell is one sweep cell: Shards trials of Cfg.
type cell[C any] struct {
	ID     string
	Cfg    C
	Shards int
}

// shardIDs names a cell's shard trials, s0 first.
func (c cell[C]) shardIDs() []string {
	ids := make([]string, c.Shards)
	for s := range ids {
		ids[s] = fmt.Sprintf("%s/s%d", c.ID, s)
	}
	return ids
}

// family is one serving family's harness plumbing: how a shard trial
// runs, how a cell's shards fold into a result, and the table the
// results render into.
type family[C, R any] struct {
	shardSeed uint64 // shard s of every cell runs with seed shardSeed+s
	title     string // assembled table title
	columns   []string
	// trial runs one shard of cfg and exports its values.
	trial func(cfg C, seed uint64) (harness.Values, error)
	// fold assembles a cell from its shard trials (ids s0 first).
	fold func(r *harness.Result, c cell[C], shards []string) (R, error)
	// row renders a folded cell into the table.
	row func(t *Table, res R)
}

// Sweep is an assembled serving-family sweep: one folded result per
// cell, in cell order, and the rendered table.
type Sweep[R any] struct {
	Cells []R
	Table Table
	ids   []string
}

// Cell returns a cell by id, or nil.
func (s *Sweep[R]) Cell(id string) *R {
	for i := range s.Cells {
		if s.ids[i] == id {
			return &s.Cells[i]
		}
	}
	return nil
}

// String renders the sweep table.
func (s *Sweep[R]) String() string { return s.Table.String() }

// trials decomposes a cell list into shard trials.
func (f family[C, R]) trials(cells []cell[C]) []harness.Trial {
	var out []harness.Trial
	for _, c := range cells {
		cfg := c.Cfg
		for s, id := range c.shardIDs() {
			out = append(out, harness.Trial{
				ID:   id,
				Seed: f.shardSeed + uint64(s),
				Run:  func(seed uint64) (harness.Values, error) { return f.trial(cfg, seed) },
			})
		}
	}
	return out
}

// assemble folds every cell's shard trials and renders the table.
func (f family[C, R]) assemble(r *harness.Result, cells []cell[C]) (*Sweep[R], error) {
	sw := &Sweep[R]{Table: Table{Title: f.title, Columns: f.columns}}
	for _, c := range cells {
		res, err := f.fold(r, c, c.shardIDs())
		if err != nil {
			return nil, err
		}
		sw.Cells = append(sw.Cells, res)
		sw.ids = append(sw.ids, c.ID)
		f.row(&sw.Table, res)
	}
	return sw, nil
}

// spec builds the harness spec for a cell list.
func (f family[C, R]) spec(title string, cells []cell[C]) harness.Spec {
	return harness.Spec{
		Title:  title,
		Trials: f.trials(cells),
		Assemble: func(r *harness.Result) (harness.Artifact, error) {
			sw, err := f.assemble(r, cells)
			if err != nil {
				return nil, err
			}
			return sw, nil
		},
	}
}

// runSweep runs the registered serving-family sweep id on the default
// worker pool.
func runSweep[R any](id string) *Sweep[R] {
	spec, _ := harness.Lookup(id)
	return runSpec(id, spec).(*Sweep[R])
}

// putHist exports h into v under prefix in its exact-merge form:
// <prefix>lat_sum, <prefix>lat_min, <prefix>lat_max, and one
// <prefix>lat_bNNN count per nonzero bucket.
func putHist(v harness.Values, prefix string, h *sim.LatencyHist) {
	v[prefix+"lat_sum"] = float64(h.Sum())
	v[prefix+"lat_min"] = float64(h.Min())
	v[prefix+"lat_max"] = float64(h.Max())
	for _, b := range h.Buckets() {
		v[fmt.Sprintf("%slat_b%03d", prefix, b.Index)] = float64(b.Count)
	}
}

// getHist rebuilds the histogram a trial exported under prefix.
func getHist(r *harness.Result, trial, prefix string) (*sim.LatencyHist, error) {
	var vals harness.Values
	for i := range r.Trials {
		if r.Trials[i].Trial == trial {
			vals = r.Trials[i].Values
		}
	}
	if vals == nil {
		return nil, fmt.Errorf("experiments: trial %q missing from results", trial)
	}
	bucket := prefix + "lat_b"
	var buckets []sim.LatencyBucket
	for k, v := range vals {
		if !strings.HasPrefix(k, bucket) {
			continue
		}
		idx, err := strconv.Atoi(k[len(bucket):])
		if err != nil {
			return nil, fmt.Errorf("experiments: bad bucket key %q: %w", k, err)
		}
		buckets = append(buckets, sim.LatencyBucket{Index: idx, Count: int64(v)})
	}
	return sim.RestoreLatencyHist(int64(vals[prefix+"lat_sum"]), int64(vals[prefix+"lat_min"]),
		int64(vals[prefix+"lat_max"]), buckets), nil
}

// mergedHist merges the histograms the trials exported under prefix.
func mergedHist(r *harness.Result, trials []string, prefix string) (*sim.LatencyHist, error) {
	merged := &sim.LatencyHist{}
	for _, trial := range trials {
		h, err := getHist(r, trial, prefix)
		if err != nil {
			return nil, err
		}
		merged.Merge(h)
	}
	return merged, nil
}
