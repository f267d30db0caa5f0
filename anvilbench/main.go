// Command anvilbench is the repository's benchmark. One invocation runs one
// workload at one seed for about --seconds, checks every output, and prints
// a human-readable report followed, as its last line, by one JSON object:
// the end-to-end metrics of an untraced run (--trace 0) or the per-layer
// metrics of a traced run (--trace 1). See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	_ "repro/internal/experiments"
	"repro/internal/scenario"
)

// setupProbes is how many init probes one set-up measurement takes.
const setupProbes = 21

// stateDir holds the benchmark's scratch data, result files and spans,
// inside the checkout it runs from.
const stateDir = ".bench_build/anvilbench"

// endToEnd are the metrics an untraced run reports.
var endToEnd = []string{"replicates_per_s", "setup_s", "peak_rss_mb"}

// perLayer are the metrics a traced run reports, in report order. Metrics a
// workload does not exercise read 0.
func perLayer() []string {
	var out []string
	for _, l := range layers {
		out = append(out, l+".cpu_s")
	}
	out = append(out, "runtime.alloc_cpu_s", "runtime.alloc_mb", "runtime.mallocs",
		"runtime.gc_cycles", "runtime.gc_pause_ms")
	for _, n := range scenario.Names() {
		out = append(out, "exp."+n+".wall_s")
	}
	out = append(out, "scenario.replicates")
	out = append(out, simCountNames...)
	out = append(out, "error_rate", "jobs_per_s", "job_p50_ms", "hit_p50_ms", "hit_p90_ms",
		"client.submit_ms", "client.result_ms", "client.polls_per_job",
		"lease.claims", "lease.claim_grant_ratio", "lease.claim_ms", "lease.uploads",
		"lease.upload_ms", "lease.renews", "lease.duplicates",
		"sweepd.store_open_ms", "sweepd.drain_ms", "journal.bytes", "loadgen.late_ms",
		"trace.overhead")
	return out
}

// env is what every workload gets: its inputs.
type env struct {
	seed    uint64
	seconds int
	digests digests
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"` // samples behind a timing or median; 0 for counts and rates
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case name == "journal.bytes":
		return "bytes"
	case name == "error_rate" || name == "lease.claim_grant_ratio" || name == "trace.overhead":
		return "ratio"
	}
	return "count"
}

// result collects one run: operation counts, problems found by
// verification, and every metric measured.
type result struct {
	attempted, failed int64
	problems          []string
	notes             []string
	metrics           map[string]metric
	simCounts         map[string]int64
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, simCounts: map[string]int64{}}
}

func (r *result) set(name string, v float64, n int) {
	r.metrics[name] = metric{Value: v, Unit: unitOf(name), N: n}
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setPercentile sets a latency percentile, or records why it was refused.
func (r *result) setPercentile(name string, xs []float64, p float64) {
	v, err := percentile(xs, p)
	if err != nil {
		r.problem("%s: %v", name, err)
		return
	}
	r.set(name, v, len(xs))
}

type workloadFunc func(e *env, r *result, win *window, tr *tracer) error

func workloads() map[string]workloadFunc {
	m := map[string]workloadFunc{"service": runService}
	for name, exps := range simWorkloads {
		m[name] = func(e *env, r *result, win *window, tr *tracer) error {
			return runSim(e, exps, r, win, tr)
		}
	}
	return m
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == probeInitFlag {
		return
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("anvilbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: attack, benign, benign-configs or service")
	seed := fs.Uint64("seed", 7, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 30, "run length in seconds")
	trace := fs.Int("trace", 0, "1 takes a CPU profile and spans and reports per-layer metrics")
	update := fs.Bool("update-digests", false, "recompute anvilbench/digests.json at -seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *update {
		if err := updateDigests(*seed, filepath.Join("anvilbench", "digests.json")); err != nil {
			fmt.Fprintln(os.Stderr, "anvilbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads()[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "anvilbench: usage: --workload attack|benign|benign-configs|service --seed N --seconds S --trace 0|1\n")
		return 2
	}
	dg, err := loadDigests()
	if err != nil {
		fmt.Fprintln(os.Stderr, "anvilbench:", err)
		return 1
	}
	host := hostProvenance()
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "anvilbench:", err)
		return 1
	}
	e := &env{seed: *seed, seconds: *seconds, digests: dg}

	var r *result
	if *trace == 1 {
		r, err = tracedRun(e, *name, w)
	} else {
		r, err = measure(e, *name, w, false)
		if err == nil {
			err = recordUntraced(e, *name, r)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "anvilbench:", err)
		return 1
	}

	names := endToEnd
	if *trace == 1 {
		names = perLayer()
	}
	final := map[string]metric{}
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			if *trace == 0 {
				r.problem("end-to-end metric %s was not measured", n)
			}
			m = metric{Unit: unitOf(n)}
		}
		final[n] = m
	}
	if r.attempted < 1 {
		r.problem("no operation attempted")
		r.attempted = 1
	}
	doc := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, r.attempted, r.failed, final}

	printReport(os.Stdout, *name, e, host, *trace == 1, r)
	line, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "anvilbench:", err)
		return 1
	}
	saveResult(e, *name, *trace == 1, host, r, line)
	fmt.Println(string(line))
	return 0
}

// measure runs one workload once and derives the metrics every workload
// shares: peak memory, runtime counter deltas, the error rate and, when
// traced, the folded CPU profile and the span file.
func measure(e *env, name string, w workloadFunc, traced bool) (*result, error) {
	r := newResult()
	win := &window{traced: traced}
	var tr *tracer
	if traced {
		tr = &tracer{t0: time.Now()}
	}
	if err := w(e, r, win, tr); err != nil {
		return nil, err
	}
	r.set("peak_rss_mb", peakRSSMB(), 0)
	r.set("runtime.alloc_mb", float64(win.m1.TotalAlloc-win.m0.TotalAlloc)/(1<<20), 0)
	r.set("runtime.mallocs", float64(win.m1.Mallocs-win.m0.Mallocs), 0)
	r.set("runtime.gc_cycles", float64(win.m1.NumGC-win.m0.NumGC), 0)
	r.set("runtime.gc_pause_ms", float64(win.m1.PauseTotalNs-win.m0.PauseTotalNs)/1e6, 0)
	for _, n := range simCountNames {
		r.set(n, float64(r.simCounts[n]), 0)
	}
	if r.attempted > 0 {
		r.set("error_rate", float64(r.failed)/float64(r.attempted), 0)
	}
	if traced {
		samples, err := parseCPUProfile(win.prof.Bytes())
		if err != nil {
			return nil, err
		}
		f := fold(samples)
		for _, l := range layers {
			r.set(l+".cpu_s", float64(f.layerNanos[l])/1e9, 0)
		}
		r.set("runtime.alloc_cpu_s", float64(f.allocNanos)/1e9, 0)
		r.note("CPU profile: %d samples, %.2f CPU-s over %.2fs", len(samples), float64(f.totalNanos)/1e9, win.seconds())
		path := filepath.Join(stateDir, fmt.Sprintf("spans-%s-seed%d.json", name, e.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		r.note("spans: %s", path)
	}
	return r, nil
}

// untracedFile keeps the untraced replicates_per_s of every run of a
// workload in this checkout; traced runs divide by their median.
func untracedFile(e *env, name string) string {
	return filepath.Join(stateDir, "untraced-"+name+".txt")
}

func recordUntraced(e *env, name string, r *result) error {
	f, err := os.OpenFile(untracedFile(e, name), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%g\n", r.metrics["replicates_per_s"].Value)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedRun measures a workload with tracing on. trace.overhead divides the
// median untraced replicates_per_s recorded in this checkout by the traced
// one; when no untraced run has been recorded yet it first makes one.
func tracedRun(e *env, name string, w workloadFunc) (*result, error) {
	untraced := readUntraced(e, name)
	var ref *result
	if len(untraced) == 0 {
		u, err := measure(e, name, w, false)
		if err != nil {
			return nil, err
		}
		if err := recordUntraced(e, name, u); err != nil {
			return nil, err
		}
		ref, untraced = u, readUntraced(e, name)
	}
	r, err := measure(e, name, w, true)
	if err != nil {
		return nil, err
	}
	if ref != nil { // the reference run's outputs were verified too
		r.attempted += ref.attempted
		r.failed += ref.failed
		r.problems = append(r.problems, ref.problems...)
	}
	if t := r.metrics["replicates_per_s"].Value; t > 0 {
		r.set("trace.overhead", median(untraced)/t, len(untraced))
	}
	return r, nil
}

func readUntraced(e *env, name string) []float64 {
	b, err := os.ReadFile(untracedFile(e, name))
	if err != nil {
		return nil
	}
	var xs []float64
	for _, f := range strings.Fields(string(b)) {
		if v, err := strconv.ParseFloat(f, 64); err == nil && v > 0 {
			xs = append(xs, v)
		}
	}
	return xs
}

func printReport(out *os.File, name string, e *env, host provenance, traced bool, r *result) {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(out, "anvilbench %s seed=%d seconds=%d (%s)\n", name, e.seed, e.seconds, mode)
	fmt.Fprintf(out, "host: nproc=%d GOMAXPROCS=%d %s cpu=%q loadavg=%s\n",
		host.NumCPU, host.GOMAXPROCS, host.GoVersion, host.CPUModel, host.LoadAvg)
	for _, n := range r.notes {
		fmt.Fprintf(out, "note: %s\n", n)
	}
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := r.metrics[k]
		if m.N > 0 {
			fmt.Fprintf(out, "  %-28s %14.6g %-6s (n=%d)\n", k, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(out, "  %-28s %14.6g %s\n", k, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(out, "operations: %d attempted, %d failed\n", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(out, "PROBLEM: %s\n", p)
	}
}

// saveResult keeps the full record of a run — provenance, notes, every
// metric with its sample count — next to the printed line.
func saveResult(e *env, name string, traced bool, host provenance, r *result, line []byte) {
	type full struct {
		Workload string            `json:"workload"`
		Seed     uint64            `json:"seed"`
		Seconds  int               `json:"seconds"`
		Traced   bool              `json:"traced"`
		Host     provenance        `json:"host"`
		Notes    []string          `json:"notes"`
		Problems []string          `json:"problems,omitempty"`
		Metrics  map[string]metric `json:"metrics"`
		Samples  map[string]int    `json:"samples"`
		Line     json.RawMessage   `json:"line"`
	}
	f := full{Workload: name, Seed: e.seed, Seconds: e.seconds, Traced: traced, Host: host,
		Notes: r.notes, Problems: r.problems, Metrics: r.metrics, Samples: map[string]int{}, Line: line}
	for k, m := range r.metrics {
		if m.N > 0 {
			f.Samples[k] = m.N
		}
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return
	}
	dir := filepath.Join(stateDir, "results")
	if os.MkdirAll(dir, 0o755) != nil {
		return
	}
	tag := "e2e"
	if traced {
		tag = "layers"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s-%d.json", name, e.seed, tag, time.Now().UnixNano()))
	_ = os.WriteFile(path, b, 0o644)
}
