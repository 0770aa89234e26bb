// Command bench is the repository's end-to-end benchmark. It drives the
// two user surfaces from outside, through public functions only: the
// paper's grid (grid-cold) and the verification daemon's HTTP API on a
// loopback server (serve-hot, serve-sweep, serve-ingest). BENCHMARK.json
// at the repository root names the workloads and declares every metric
// with its unit and regression bound; this program measures them.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	bench/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//	bench/run.sh [--seed N] [--trace 0|1]    # every workload, each in a child process
//	bench/run.sh --compare DIR_A DIR_B       # compare two sets of result files
//
// A run prints a human-readable report on standard error and, as the last
// line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics untraced, the
// per-layer metrics traced. It also writes that result, with the machine
// it ran on, as a JSON file under --out (and, traced, the spans as JSON
// lines under --out/spans). Any failed correctness check exits non-zero
// without printing a result.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func nproc() int { return runtime.NumCPU() }

// sizes scales a workload. The benchmark runs fullSizes; tests run a tiny
// configuration of the same code.
type sizes struct {
	small                           bool
	gridScale, hotScale, sweepScale float64
	warmup                          int // untimed plan prefix of every serve workload
	pinned                          int // plan prefix whose answers are digested and pinned
	maxOps                          int // cap on plan requests after the warm-up
	verifySamples, gridSamples      int
	gridSetups, serveSetups         int // set-ups timed per run; setup_s is their median
}

// fullSizes is what the benchmark runs. serve-sweep's warm-up must carry
// the search engine's query-embedding memo (4,096 queries, about 1,100
// facts' RAG retrievals) to full: until then every new query copies the
// memo, and retrieval costs about twice its steady-state time.
var fullSizes = sizes{
	gridScale: 1.0, hotScale: 0.1, sweepScale: 1.0,
	warmup: 30_000, pinned: 20_000, maxOps: 1_000_000,
	verifySamples: 2000, gridSamples: 200,
	gridSetups: 7, serveSetups: 3,
}

// runConfig is one workload run.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	size     sizes
	pins     map[string]string // workload -> pinned digest
	workDir  string            // scratch directory for result stores
	log      io.Writer
}

// result is what a workload run measured.
type result struct {
	Correct   bool           `json:"correct"`
	Attempted int64          `json:"attempted"`
	Failed    int64          `json:"failed"`
	Metrics   metricSet      `json:"metrics"`
	Info      map[string]any `json:"info,omitempty"`
	tracer    *tracer
}

var workloads = map[string]func(context.Context, runConfig) (*result, error){
	"grid-cold":    runGridCold,
	"serve-hot":    runServe,
	"serve-sweep":  runServe,
	"serve-ingest": runServe,
}

// latencyMetrics sets the nearest-rank median and p99 of every sample (ms;
// a failed request is +Inf) and records the sample count and the highest
// percentile with at least ten samples beyond it.
func latencyMetrics(res *result, samples []float64) {
	slices.Sort(samples)
	res.Metrics.set("p50_ms", "ms", nearestRank(samples, 0.50))
	res.Metrics.set("p99_ms", "ms", nearestRank(samples, 0.99))
	res.Info["samples"] = len(samples)
	res.Info["supported_percentile"] = supportedPercentile(len(samples))
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// reported lists the metrics a run reports: per-layer when traced,
// end-to-end otherwise.
func (s *spec) reported(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range s.Workloads {
		if workloads[w.Name] == nil {
			return nil, fmt.Errorf("%s names unknown workload %q", path, w.Name)
		}
	}
	return &s, nil
}

// env describes the machine a run measured.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

func machine() env {
	e := env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown", Go: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	out      string
	compare  bool
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: every workload, each in a child process)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the request plans and the world (1 = the default world)")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured time per run (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "results"), "directory for result files and spans")
	fs.BoolVar(&o.compare, "compare", false, "compare the result files of two directories given as arguments")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if o.compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two result directories")
		}
		return compare(stdout, sp, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if o.seed < 1 {
		return errors.New("-seed must be >= 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return errors.New("-trace must be 0 or 1")
	}
	if o.seconds == 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	if o.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if o.workload == "" {
		return runAll(stdout, stderr, sp, o)
	}
	if workloads[o.workload] == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(o.out, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	c := runConfig{
		workload: o.workload, seed: o.seed, seconds: time.Duration(o.seconds * float64(time.Second)),
		trace: o.trace == 1, size: fullSizes, workDir: work, log: stderr,
	}
	if o.seed == 1 {
		c.pins = pinnedDigests
	}
	e := machine()
	fmt.Fprintf(stderr, "%s seed %d: nproc %d, GOMAXPROCS %d, %s, %s\n", o.workload, o.seed, e.NumCPU, e.GOMAXPROCS, e.CPU, e.Go)
	res, err := measure(context.Background(), c, sp)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "%s: %v latency samples, highest supported percentile p%v\n",
		o.workload, res.Info["samples"], res.Info["supported_percentile"])
	stamp := fmt.Sprintf("%s-s%d-t%d-%d", o.workload, o.seed, o.trace, time.Now().UnixNano())
	if res.tracer != nil {
		dir := filepath.Join(o.out, "spans")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, stamp+".jsonl")
		if err := res.tracer.writeSpans(path); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "spans: %s (%d written, %d beyond the cap)\n", path, len(res.tracer.log), res.tracer.dropped)
	}
	if err := writeResultFile(filepath.Join(o.out, stamp+".json"), o, e, res); err != nil {
		return err
	}
	return printResult(stdout, res, sp.reported(c.trace))
}

// measure runs one workload and keeps the metrics the run's mode reports.
func measure(ctx context.Context, c runConfig, sp *spec) (*result, error) {
	res, err := workloads[c.workload](ctx, c)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.Metrics.set("peak_rss_mb", "MB", rss)
	if err := checkResult(res, sp.reported(c.trace)); err != nil {
		return nil, fmt.Errorf("%s: %w", c.workload, err)
	}
	return res, nil
}

// checkResult fails a run in which any operation failed, and one that did
// not measure every metric its mode reports as a finite number in the
// declared unit.
func checkResult(res *result, want []metricSpec) error {
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	if err := requireKeys(res.Metrics, want); err != nil {
		return err
	}
	for _, m := range want {
		if v := res.Metrics[m.Name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s is %v", m.Name, v)
		}
	}
	return nil
}

// printResult prints the result line: the metrics the run's mode reports.
func printResult(w io.Writer, res *result, want []metricSpec) error {
	kept := metricSet{}
	for _, m := range want {
		kept[m.Name] = res.Metrics[m.Name]
	}
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int64     `json:"attempted"`
		Failed    int64     `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, kept})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// resultFile is one run as stored under --out, read back by -compare.
type resultFile struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Env      env     `json:"env"`
	Result   *result `json:"result"`
}

func writeResultFile(path string, o options, e env, res *result) error {
	data, err := json.MarshalIndent(resultFile{o.workload, o.seed, o.seconds, o.trace, e, res}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload of the spec in its own child process, so
// peak RSS and GC state never carry from one workload to the next.
func runAll(stdout, stderr io.Writer, sp *spec, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range sp.Workloads {
		cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatUint(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(o.trace), "--out", o.out)
		cmd.Stderr = stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		sc := bufio.NewScanner(out)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			fmt.Fprintf(stdout, "%s %s\n", w.Name, sc.Text())
		}
		if err := cmd.Wait(); err != nil {
			failed = append(failed, w.Name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, ", "))
	}
	return nil
}
