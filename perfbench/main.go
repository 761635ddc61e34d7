// Command perfbench is PAB's benchmark. It runs one seeded workload
// against the program as shipped — default configs, telemetry at its
// default — checks the outputs, and prints its metrics:
//
//	perfbench --workload sweep|decode|live|all --seed N --seconds S --trace 0|1
//	perfbench compare A.json B.json
//
// Every line but the last is for people: the environment, each metric
// by its name with its unit, and any shortfall. The last line is one
// JSON object with the keys correct, attempted, failed and metrics.
// With --trace 0 the metrics are the end-to-end set, with --trace 1
// the per-layer set from a separate traced run. Results and spans are
// also written under $PERFBENCH_OUT (default .bench_build/perfbench).
// See README.md in this directory for what each workload and metric
// means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricDef is one metric of the JSON result; the names, units and
// directions match BENCHMARK.json.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd metrics apply to every workload; each workload maps its own
// named metrics onto them (see README.md). Their times are process CPU
// time (cpuTime), so a host that steals cycles from this machine does
// not move them; the workloads print wall-clock figures beside them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_heap_mb", "MiB", "lower"},
	{"ops_per_cpu_s", "1/s", "higher"},
	{"cpu_ms_p50", "ms", "lower"},
	{"cpu_ms_tail", "ms", "lower"},
}

// perLayer metrics come from traced runs. A workload reports the
// layers it exercises; the others read 0 and are listed as not
// exercised.
var perLayer = []metricDef{
	{"sim.queue_wait_ms_p50", "ms", "lower"},
	{"sim.run_ms_p50", "ms", "lower"},
	{"sim.cache_hit_ratio", "ratio", "higher"},
	{"sim.result_delay_ms_p50", "ms", "lower"},
	{"scenario.run_ms_p50", "ms", "lower"},
	{"core.exchange_ms_p50", "ms", "lower"},
	{"core.exchange_unstaged_share", "ratio", "lower"},
	{"projector.query_share", "ratio", "lower"},
	{"channel.apply_share", "ratio", "lower"},
	{"channel.response_ms", "ms", "lower"},
	{"node.downlink_share", "ratio", "lower"},
	{"dsp.analytic_share", "ratio", "lower"},
	{"dsp.envelope_share", "ratio", "lower"},
	{"core.receiver_share", "ratio", "lower"},
	{"hydrophone.record_share", "ratio", "lower"},
	{"core.demodulate_share", "ratio", "lower"},
	{"core.decode_baseband_share", "ratio", "lower"},
	{"dsp.fft_ms", "ms", "lower"},
	{"dsp.xcorr_ms", "ms", "lower"},
	{"decode.alloc_bytes_per_op", "B", "lower"},
	{"decode.gc_per_op", "count", "lower"},
	{"telemetry.overhead_share", "ratio", "lower"},
	{"telemetry.overhead_spread", "ratio", "lower"},
	{"stream.write_ms_p50", "ms", "lower"},
	{"stream.realtime_x", "x", "higher"},
	{"stream.decode_attempts", "count", "lower"},
	{"stream.decode_yield", "ratio", "higher"},
	{"stream.scan_hits_per_s", "1/s", "lower"},
	{"stream.resyncs", "count", "lower"},
	{"stream.after_loss_attempts", "count", "lower"},
	{"stream.after_loss_realtime_x", "x", "higher"},
	{"streamd.overhead_ms_p50", "ms", "lower"},
	{"streamd.bytes_per_session", "B", "lower"},
	{"live.gen_late_ms_max", "ms", "lower"},
	{"live.frame_p50_ms", "ms", "lower"},
	{"sweep.poll_fail_ratio", "ratio", "lower"},
	{"decode.fail_ratio", "ratio", "lower"},
	{"live.deadline_miss_ratio", "ratio", "lower"},
	{"live.frame_loss_ratio", "ratio", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
}

// named is one metric under the name the workload gives it.
type named struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// result is what one workload run produces.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Trace     bool   `json:"trace"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Report holds the workload's metrics under their own names
	// (sweep_jobs_per_s, decode_tail_ms, ...), in print order.
	Report []named `json:"report"`
	// E2E maps the workload's metrics onto the endToEnd names.
	E2E map[string]float64 `json:"end_to_end"`
	// Layers holds per-layer values, filled by traced runs.
	Layers map[string]float64 `json:"per_layer,omitempty"`
	// Notes are shortfalls and failed checks, printed by name.
	Notes []string `json:"notes,omitempty"`
	Env   envInfo  `json:"env"`
}

func (r *result) add(name string, v float64, unit, note string) {
	r.Report = append(r.Report, named{name, v, unit, note})
}

func (r *result) note(format string, a ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, a...))
}

func (r *result) layer(name string, v float64) {
	if r.Layers == nil {
		r.Layers = make(map[string]float64)
	}
	r.Layers[name] = v
}

// addTail reports a latency median and tail under prefix_p50_ms and
// prefix_tail_ms, with the tail's percentile and sample count. input
// names each sample's input for a loop that repeats them (see tail);
// nil when every sample has its own.
func (r *result) addTail(prefix string, lat []float64, input []int) (p50, t float64) {
	p50 = newDist(lat).p50()
	t, pct, ok := tail(lat, input)
	note := fmt.Sprintf("p%.2f of %d samples", pct, len(lat))
	if !ok {
		note = fmt.Sprintf("max of %d samples: too few samples or inputs for a tail", len(lat))
		r.note("%s_tail_ms: only %d samples", prefix, len(lat))
	}
	r.add(prefix+"_p50_ms", p50, "ms", fmt.Sprintf("of %d samples", len(lat)))
	r.add(prefix+"_tail_ms", t, "ms", note)
	return p50, t
}

// envInfo is the environment block every result carries.
type envInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func environment(seed int64) envInfo {
	e := envInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			e.Commit = rev
			if dirty {
				e.Commit += "-dirty"
			}
		}
	}
	return e
}

// comparable refuses a comparison across machines that differ in core
// count or Go version: such a difference is not the program's.
func comparable(a, b envInfo) error {
	var diffs []string
	if a.GOMAXPROCS != b.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.NumCPU != b.NumCPU {
		diffs = append(diffs, fmt.Sprintf("nproc %d vs %d", a.NumCPU, b.NumCPU))
	}
	if a.GoVersion != b.GoVersion {
		diffs = append(diffs, fmt.Sprintf("Go %s vs %s", a.GoVersion, b.GoVersion))
	}
	if len(diffs) > 0 {
		return fmt.Errorf("refusing to compare results from different environments: %s", strings.Join(diffs, ", "))
	}
	return nil
}

type workloadFunc func(seed int64, seconds float64, tr *tracer, res *result) error

var workloads = map[string]workloadFunc{
	"sweep":  runSweep,
	"decode": runDecode,
	"live":   runLive,
}

var workloadOrder = []string{"sweep", "decode", "live"}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	os.Exit(realMain())
}

func realMain() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "sweep, decode, live or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 12, "timed phase length in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		fs.Usage()
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	} else if workloads[*workload] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s, all)\n", *workload, strings.Join(workloadOrder, ", "))
		return 2
	}
	outDir := os.Getenv("PERFBENCH_OUT")
	if outDir == "" {
		outDir = filepath.Join(".bench_build", "perfbench")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	var results []*result
	for _, name := range names {
		res, err := runOne(name, *seed, *seconds, *trace == 1, outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		results = append(results, res)
	}
	line, err := finalLine(results, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func runOne(name string, seed int64, seconds float64, traced bool, outDir string) (*result, error) {
	res := &result{Workload: name, Seed: seed, Trace: traced, E2E: map[string]float64{}, Env: environment(seed)}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	envJSON, _ := json.Marshal(res.Env)
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%v\n# env %s\n", name, seed, seconds, traced, envJSON)
	if err := workloads[name](seed, seconds, tr, res); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, m := range endToEnd {
		if _, ok := res.E2E[m.Name]; !ok {
			return nil, fmt.Errorf("workload did not produce %s", m.Name)
		}
	}
	if traced {
		spans := tr.snapshot()
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-s%d.jsonl", name, seed))
		if err := tr.writeFile(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("# %d spans written to %s\n", len(spans), path)
		printSpanTable(os.Stdout, summarize(spans))
		var missing []string
		for _, m := range perLayer {
			if _, ok := res.Layers[m.Name]; !ok {
				missing = append(missing, m.Name)
				res.layer(m.Name, 0)
			}
		}
		if len(missing) > 0 {
			fmt.Printf("# not exercised by %s (reported as 0): %s\n", name, strings.Join(missing, " "))
		}
	}
	for _, m := range res.Report {
		fmt.Printf("%-34s %14.6g %-8s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	if traced {
		for _, m := range perLayer {
			fmt.Printf("%-34s %14.6g %s\n", m.Name, res.Layers[m.Name], m.Unit)
		}
	}
	for _, n := range res.Notes {
		fmt.Printf("# NOTE %s\n", n)
	}
	fmt.Printf("# checks: attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-%s-s%d-t%d.json", name, seed, btoi(traced)))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return nil, fmt.Errorf("write result: %w", err)
	}
	return res, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine builds the last output line. A single workload reports the
// metrics under their plain names; --workload all prefixes each with
// its workload.
func finalLine(results []*result, traced bool) ([]byte, error) {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range results {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		prefix := ""
		if len(results) > 1 {
			prefix = r.Workload + "."
		}
		defs, vals := endToEnd, r.E2E
		if traced {
			defs, vals = perLayer, r.Layers
		}
		for _, m := range defs {
			out.Metrics[prefix+m.Name] = jsonMetric{vals[m.Name], m.Unit}
		}
	}
	return json.Marshal(out)
}

// compare prints two saved results side by side, refusing when their
// environments differ in core count or Go version.
func compare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare A.json B.json")
	}
	var rs [2]result
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if err := comparable(rs[0].Env, rs[1].Env); err != nil {
		return err
	}
	if rs[0].Workload != rs[1].Workload {
		return fmt.Errorf("refusing to compare workload %s with %s", rs[0].Workload, rs[1].Workload)
	}
	vals := func(r result) map[string]named {
		m := make(map[string]named)
		for _, n := range r.Report {
			m[n.Name] = n
		}
		for k, v := range r.Layers {
			m[k] = named{Name: k, Value: v}
		}
		return m
	}
	a, b := vals(rs[0]), vals(rs[1])
	keys := make([]string, 0, len(a))
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Printf("%-34s %14s %14s %9s\n", "metric", "A", "B", "B/A")
	for _, k := range keys {
		ratio := b[k].Value / a[k].Value
		fmt.Printf("%-34s %14.6g %14.6g %9.4f %s\n", k, a[k].Value, b[k].Value, ratio, a[k].Unit)
	}
	return nil
}

// repeatSetup runs setup n times and returns the median of its process
// CPU times in seconds with the last state; earlier states are released
// with their closer.
func repeatSetup[T any](n int, setup func() (T, func(), error)) (T, func(), float64, error) {
	var state T
	var closeFn func()
	durs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if closeFn != nil {
			closeFn()
		}
		runtime.GC()
		start := cpuTime()
		s, c, err := setup()
		if err != nil {
			return state, nil, 0, err
		}
		durs = append(durs, (cpuTime() - start).Seconds())
		state, closeFn = s, c
	}
	return state, closeFn, newDist(durs).p50(), nil
}
