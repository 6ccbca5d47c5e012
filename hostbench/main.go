// Command hostbench is the repository's host-time benchmark. It runs one
// named workload — a fixed list of registered scenario cells — through
// the trial harness with a pool of one, over and over for a set time,
// and reports what the host spent: wall time per pass, set-up time,
// simulated requests served per host second, and peak memory. Every
// trial's simulated values are checked: against the stored reference at
// seed 0, and against the run's first pass at every seed.
//
// Usage, from the repository root:
//
//	bash hostbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// spends half the time on untraced passes and half on passes under a
// CPU profile, and prints the per-layer split; the profile and the
// benchmark's spans are written under --out. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/harness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: tier-telemetry, rack-scale or lease-churn")
	seed := fs.Uint64("seed", 0, "workload seed; 0 reproduces the registered specs' shard seeds")
	seconds := fs.Float64("seconds", 10, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics from a CPU profile")
	out := fs.String("out", filepath.Join(".bench_build", "trace"), "directory for the traced run's profile and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "hostbench: need --workload (tier-telemetry, rack-scale, lease-churn), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	b, err := newBench(w, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	measure := time.Duration(*seconds * float64(time.Second))

	var m map[string]metric
	var passes int
	if *trace == 0 {
		m, passes = b.endToEnd(measure)
	} else {
		m, passes, err = b.traced(measure, *out)
		if err != nil {
			fmt.Fprintf(stderr, "hostbench: %v\n", err)
			return 1
		}
	}
	for _, msg := range b.failures {
		fmt.Fprintf(stderr, "hostbench: failed trial: %s\n", msg)
	}
	fmt.Fprintf(stdout, "workload %s seed %d gomaxprocs %d passes %d trials/pass %d\n",
		w.name, *seed, procs, passes, len(w.trials))
	fmt.Fprintf(stdout, "pass wall times %v\n", b.passWalls)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(stdout, "%-28s %14.6g ratio (%d of %d trials failed)\n", "fail_ratio",
		float64(b.failed)/float64(max(b.attempted, 1)), b.failed, b.attempted)
	res, err := json.Marshal(result{Correct: b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted, Failed: b.failed, Metrics: m})
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(res))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench runs one workload at one seed and keeps its correctness ledger.
type bench struct {
	w    workload
	seed uint64
	// ref holds the reference digests when the seed has them (seed 0);
	// first holds the digests of the run's first pass.
	ref   map[string]string
	first map[string]string
	// replicas are the timed builds of the workload's cluster, for
	// workloads whose scenarios have no OnCluster hook.
	replicas []time.Duration

	attempted, failed int
	failures          []string
	passWalls         []time.Duration // the measured passes (untraced first), for the summary
}

func newBench(w workload, seed uint64) (*bench, error) {
	b := &bench{w: w, seed: seed, first: map[string]string{}}
	if seed == 0 {
		refs, err := loadReference()
		if err != nil {
			return nil, err
		}
		b.ref = refs[w.name]
		if b.ref == nil { // a workload with no reference fails every trial
			b.ref = map[string]string{}
		}
	}
	return b, nil
}

// passResult is one pass over the workload's trials.
type passResult struct {
	start  time.Time
	wall   time.Duration // the whole pass
	trials time.Duration // the trials' own time
	// hooked is the set-up time of the trials whose scenario marked its
	// end through OnCluster; the other unhooked trials' set-up is
	// estimated from the replicas.
	hooked   time.Duration
	unhooked int
	out      trialOutput // summed over the pass's trials that passed their checks
	recs     []trialRecord
}

// setup is the pass's set-up time, given the median replica build.
func (p passResult) setup(replica time.Duration) time.Duration {
	return p.hooked + time.Duration(p.unhooked)*replica
}

// pass runs every trial once, one at a time, through the harness.
func (b *bench) pass() passResult {
	recs := make([]trialRecord, len(b.w.trials))
	spec := harness.Spec{Title: b.w.name}
	for i, t := range b.w.trials {
		rec := &recs[i]
		spec.Trials = append(spec.Trials, harness.Trial{ID: t.id, Seed: trialSeed(t.shard, b.seed),
			Run: func(seed uint64) (harness.Values, error) {
				rec.start = time.Now()
				defer func() { rec.end = time.Now() }()
				return t.run(seed, rec)
			}})
	}
	start := time.Now()
	res := harness.Execute(b.w.name, spec, harness.Options{Parallel: 1})
	p := passResult{start: start, wall: time.Since(start), recs: recs}
	for i, tr := range res.Trials {
		rec := &recs[i]
		p.trials += rec.end.Sub(rec.start)
		if rec.cluster.IsZero() {
			p.unhooked++
		} else {
			p.hooked += rec.cluster.Sub(rec.start)
		}
		b.attempted++
		if err := b.check(tr); err != nil {
			b.failed++
			b.failures = append(b.failures, fmt.Sprintf("%s (seed %d): %v", tr.Trial, tr.Seed, err))
			continue
		}
		p.out.add(rec.out)
	}
	return p
}

// check decides whether a trial passed: it returned no error and its
// simulated values match the reference (seed 0) and the run's first
// pass.
func (b *bench) check(tr harness.TrialResult) error {
	if tr.Error != "" {
		return errors.New(tr.Error)
	}
	d := digest(tr.Values)
	if b.ref != nil && b.ref[tr.Trial] != d {
		return fmt.Errorf("simulated values digest %s, reference %q", d, b.ref[tr.Trial])
	}
	if first, ok := b.first[tr.Trial]; !ok {
		b.first[tr.Trial] = d
	} else if first != d {
		return fmt.Errorf("simulated values digest %s, first pass %s", d, first)
	}
	return nil
}

// digest fingerprints a trial's simulated values exactly.
func digest(v harness.Values) string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, strconv.FormatFloat(v[k], 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// replicaBudget is the time spent on set-up replicas after each
// measured pass (at least one build), for workloads whose scenarios
// have no OnCluster hook. Interleaving them with the passes lets set-up
// and serving see the same host conditions.
const replicaBudget = 300 * time.Millisecond

// buildReplicas times builds of the workload's cluster.
func (b *bench) buildReplicas() {
	if b.w.setup == nil {
		return
	}
	for start := time.Now(); time.Since(start) < replicaBudget; {
		t0 := time.Now()
		closeCluster := b.w.setup()
		b.replicas = append(b.replicas, time.Since(t0))
		closeCluster()
	}
}

// replica is the median replica build (0 without replicas).
func (b *bench) replica() time.Duration {
	if len(b.replicas) == 0 {
		return 0
	}
	return median(b.replicas)
}

// passesFor runs passes until d has passed and at least minPasses ran,
// building set-up replicas after each when replicate is set.
func (b *bench) passesFor(d time.Duration, minPasses int, replicate bool, log *spanLog, parent int) []passResult {
	var ps []passResult
	ids := make([]string, len(b.w.trials))
	for i, t := range b.w.trials {
		ids[i] = t.id
	}
	start := time.Now()
	for len(ps) < minPasses || time.Since(start) < d {
		p := b.pass()
		ps = append(ps, p)
		log.addPass(parent, p, ids)
		if replicate {
			b.buildReplicas()
		}
	}
	return ps
}

// warmUp runs one unmeasured pass and replica round (heap growth, lazy
// initialisation, and the digests later passes must repeat).
func (b *bench) warmUp() {
	b.pass()
	b.buildReplicas()
	b.replicas = nil
}

// endToEnd measures the end-to-end metrics, untraced.
func (b *bench) endToEnd(d time.Duration) (map[string]metric, int) {
	b.warmUp()
	ps := b.passesFor(d, 3, true, nil, 0)
	b.passWalls = walls(ps)
	rep := b.replica()
	setups := make([]time.Duration, len(ps))
	rates := make([]float64, len(ps))
	for i, p := range ps {
		setups[i] = p.setup(rep)
		rates[i] = ratio(float64(p.out.requests), (p.trials - setups[i]).Seconds())
	}
	return map[string]metric{
		"wall_s":        {median(walls(ps)).Seconds(), "s"},
		"setup_s":       {median(setups).Seconds(), "s"},
		"sim_req_per_s": {median(rates), "1/s"},
		"peak_rss_mb":   {peakRSSMB(), "MB"},
	}, len(ps)
}

// traced spends half of d on untraced passes and half on passes under a
// CPU profile, and derives the per-layer metrics.
func (b *bench) traced(d time.Duration, dir string) (map[string]metric, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	log := newSpanLog()
	wid := log.add(0, "workload", b.w.name, log.origin, log.origin)
	b.warmUp()

	rt0 := readRuntime()
	plain := b.passesFor(d/2, 1, false, nil, 0)
	rt1 := readRuntime()

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, 0, err
	}
	traced := b.passesFor(d/2, 1, false, log, wid)
	pprof.StopCPUProfile()
	log.finish(wid, time.Now())
	b.passWalls = append(walls(plain), walls(traced)...)

	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.w.name, b.seed))
	if err := os.WriteFile(base+".cpu.pb.gz", prof.Bytes(), 0o644); err != nil {
		return nil, 0, err
	}
	if err := log.write(base + ".spans.json"); err != nil {
		return nil, 0, err
	}
	samples, err := readProfile(bytes.NewReader(prof.Bytes()))
	if err != nil {
		return nil, 0, err
	}
	split := splitByLayer(samples)

	n := float64(len(traced))
	perPass := func(ns int64) float64 { return float64(ns) / 1e9 / n }
	last := traced[len(traced)-1].out
	c := last.counters
	p50, p99, served := last.latencyUS()
	plainWall := median(walls(plain))
	m := map[string]metric{
		"cpu.total_s":                {perPass(split.total), "s"},
		"sim.switch_s":               {perPass(split.under["sim.switch"]), "s"},
		"monitor.place_s":            {perPass(split.under["monitor.place"]), "s"},
		"fabric.topo_s":              {perPass(split.under["fabric.topo"]), "s"},
		"runtime.sched_s":            {perPass(split.sched), "s"},
		"sim.events":                 {float64(c.events), "count"},
		"sim.host_ns_per_event":      {ratio(float64(plainWall.Nanoseconds()), float64(c.events)), "ns"},
		"monitor.grants":             {float64(c.grants), "count"},
		"monitor.grant_ratio":        {ratio(float64(c.grants), float64(c.attempts)), "ratio"},
		"monitor.failovers":          {float64(c.failovers), "count"},
		"monitor.preemptions":        {float64(c.preemptions), "count"},
		"fabric.packets":             {float64(c.packets), "count"},
		"fabric.bytes":               {float64(c.bytes), "bytes"},
		"fabric.pkt_p99_ns":          {float64(c.pktP99), "ns"},
		"transport.crma_fills":       {float64(c.crmaFills), "count"},
		"transport.crma_fill_p99_ns": {float64(c.fillP99), "ns"},
		"transport.rdma_ops":         {float64(c.rdmaOps), "count"},
		"probe.clusters":             {float64(c.clusters), "count"},
		"serving.requests":           {float64(served), "count"},
		"serving.p50_us":             {p50, "us"},
		"serving.p99_us":             {p99, "us"},
		"trace.overhead_s":           {(median(walls(traced)) - plainWall).Seconds(), "s"},
	}
	named := 0.0
	for _, l := range selfLayers {
		v := perPass(split.self[l])
		m[l+".self_s"] = metric{v, "s"}
		named += v
	}
	m["other.self_s"] = metric{m["cpu.total_s"].Value - named, "s"}
	np := float64(len(plain))
	m["runtime.gc_s"] = metric{(rt1.gcCPU - rt0.gcCPU) / np, "s"}
	m["runtime.alloc_mb"] = metric{float64(rt1.allocBytes-rt0.allocBytes) / np / (1 << 20), "MB"}
	m["runtime.allocs"] = metric{float64(rt1.allocObjects-rt0.allocObjects) / np, "count"}
	m["runtime.gc_cycles"] = metric{float64(rt1.gcCycles-rt0.gcCycles) / np, "count"}
	return m, len(plain) + len(traced), nil
}

// selfLayers are the layers whose self time is reported by name;
// "runtime" holds samples with no program frame, and every other layer
// (and the benchmark itself) is summed into other.self_s.
var selfLayers = []string{"sim", "monitor", "fabric", "transport", "memsys", "core",
	"serving", "workloads", "runtime"}

type runtimeSnap struct {
	gcCPU                    float64
	allocBytes, allocObjects uint64
	gcCycles                 uint64
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeSnap{gcCPU: s[0].Value.Float64(), allocBytes: s[1].Value.Uint64(),
		allocObjects: s[2].Value.Uint64(), gcCycles: s[3].Value.Uint64()}
}

// peakRSSMB is the process's peak resident set (Linux reports ru_maxrss
// in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func walls(ps []passResult) []time.Duration {
	out := make([]time.Duration, len(ps))
	for i, p := range ps {
		out[i] = p.wall
	}
	return out
}

func median[T int64 | float64 | time.Duration](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
