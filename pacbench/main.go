// Command pacbench is the layered benchmark of the PAC reproduction. It
// measures the system from the outside: the kernel workload runs the
// simulator in-process, and the two serving workloads boot the production
// stack — pacgw in front of two pacd nodes with the durable store, the job
// journal and checkpoints on — as separate processes and drive it over
// HTTP from one client process.
//
// Usage, from the repository root (run.sh builds the binaries first):
//
//	bash pacbench/run.sh -workload kernel -seed 1 -seconds 12 -trace 0
//	bash pacbench/run.sh -workload serve_hot -seed 7 -seconds 12 -trace 1
//	bash pacbench/run.sh -steady 10 -seconds 12
//	bash pacbench/run.sh -record-digests
//
// With -trace 0 a run reports the end-to-end metrics. With -trace 1 a
// separate traced run records spans around pacbench's own calls into
// each layer and reports the per-layer metrics. Every run checks the
// program's outputs. The lines of standard output print every metric with
// its unit; the last line is one JSON object with the keys correct,
// attempted, failed and metrics. README.md explains the workloads and
// metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed   uint64
	window time.Duration // the measured window
	traced bool
	bin    string // directory holding the pacd and pacgw binaries
	work   string // per-run scratch directory, removed when the run ends
}

// metricValue is one reported metric.
type metricValue struct {
	name  string
	value float64
	unit  string
}

// result is what a workload run produces. failed counts ops that failed,
// including output-check mismatches; mismatches counts those alone.
type result struct {
	attempted  int64
	failed     int64
	mismatches int64
	notes      []string // printed above the metrics (check outcomes, chosen percentile)
	metrics    []metricValue
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metricValue{name, value, unit})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// mismatch records one failed output check that is not tied to an op.
func (r *result) mismatch(format string, args ...any) {
	r.mismatches++
	r.note("CHECK FAILED: "+format, args...)
}

var workloads = map[string]func(context.Context, runConfig) (*result, error){
	"kernel":      runKernel,
	"serve_hot":   runServeHot,
	"serve_sweep": runServeSweep,
}

// workloadOrder is the order the steadiness check runs them in.
var workloadOrder = []string{"kernel", "serve_hot", "serve_sweep"}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: kernel, serve_hot or serve_sweep")
		seed     = flag.Uint64("seed", digestSeed, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 runs the traced per-layer run")
		bin      = flag.String("bin", ".bench_build/bin", "directory holding the pacd and pacgw binaries")
		work     = flag.String("work", ".bench_build", "scratch directory for fleet data and trace files")
		steady   = flag.Int("steady", 0, "steadiness self-check: run each workload this many times, one seed each")
		only     = flag.String("workloads", strings.Join(workloadOrder, ","), "workloads the steadiness check runs")
		record   = flag.Bool("record-digests", false, "rewrite pacbench/digests.json from the default seed and exit")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	absBin, err := filepath.Abs(*bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pacbench:", err)
		return 1
	}
	switch {
	case *record:
		if err := recordDigests(ctx, "pacbench/digests.json"); err != nil {
			fmt.Fprintln(os.Stderr, "pacbench:", err)
			return 1
		}
		return 0
	case *steady > 0:
		if err := steadiness(ctx, *steady, *seconds, strings.Split(*only, ","), absBin, *work); err != nil {
			fmt.Fprintln(os.Stderr, "pacbench:", err)
			return 1
		}
		return 0
	}

	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "pacbench: unknown workload %q (kernel, serve_hot, serve_sweep)\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "pacbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	dir, err := os.MkdirTemp(*work, "run-"+*workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "pacbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	rc := runConfig{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1,
		bin:    absBin,
		work:   dir,
	}
	res, err := fn(ctx, rc)
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pacbench: %s: %v\n", *workload, err)
		return 1
	}
	printResult(*workload, rc, res)
	return 0
}

// printResult prints every metric with its unit, then the JSON result as
// the last line of standard output.
func printResult(workload string, rc runConfig, res *result) {
	kind := "end-to-end"
	if rc.traced {
		kind = "per-layer (traced run)"
	}
	fmt.Printf("pacbench %s seed=%d window=%v %s metrics\n", workload, rc.seed, rc.window, kind)
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	fmt.Printf("  attempted=%d failed=%d mismatches=%d\n", res.attempted, res.failed, res.mismatches)
	// failed_frac is printed but kept out of the JSON metrics: it is 0 on a
	// healthy fleet, and attempted and failed carry it.
	fmt.Printf("  %-34s %16s %s\n", "failed_frac",
		strconv.FormatFloat(ratio(float64(res.failed), float64(res.attempted)), 'g', 8, 64), "frac")
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   res.mismatches == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range res.metrics {
		fmt.Printf("  %-34s %16s %s\n", m.name, strconv.FormatFloat(m.value, 'g', 8, 64), m.unit)
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or Inf metric can fail here, which is a bug.
		panic(err)
	}
	fmt.Println(string(line))
}
