// Command perfbench is the repository's end-to-end benchmark. One
// process generates the load and hosts the system under test, wired the
// way cmd/facetserve wires it by default:
//
//	perfbench --workload batch_extract|browse_read|fanout_read|live_ingest \
//	          --seed N --seconds S --trace 0|1
//
// It builds its inputs from --seed (the program under test sees only the
// generated documents and requests), sets the system up several times and
// reports the median set-up time, measures for --seconds, checks the
// program's outputs outside the timed phase, and prints one JSON object
// as the last line of standard output. With --trace 0 it reports the
// end-to-end metrics; with --trace 1 it runs the same workload with
// spans around calls into each module and reports the per-layer metrics.
// README.md says why each workload exists and what is left unmeasured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// dir is a private scratch directory inside the checkout (segment
	// store, snapshot file); removed when the run ends.
	dir string
	log io.Writer
}

// buildDir holds everything a run leaves behind inside the checkout;
// traced runs keep their span dumps under traceDir.
const buildDir = ".bench_build"

var traceDir = filepath.Join(buildDir, "traces")

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int64
	// checkErr is the first failed output check; a failed check counts
	// every attempted operation as failed.
	checkErr error
	// firstFailure is the first failed operation, for the log.
	firstFailure error
	metrics      map[string]float64
	// noise holds the counters that explain an outlying run (GC cycles,
	// generator lateness, epochs, hedges, connections, hit rates). They
	// are printed beside the result, not gated.
	noise map[string]float64
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, noise: map[string]float64{}}
}

// check records the first failed output check.
func (o *outcome) check(err error) {
	if err != nil && o.checkErr == nil {
		o.checkErr = err
	}
}

// fail counts n failed operations and keeps the first error for the log.
func (o *outcome) fail(n int64, err error) {
	o.failed += n
	if err != nil && o.firstFailure == nil {
		o.firstFailure = err
	}
}

type workload func(cfg runConfig) (*outcome, error)

var workloads = map[string]workload{
	"batch_extract": runBatch,
	"browse_read":   func(cfg runConfig) (*outcome, error) { return runRead(cfg, false) },
	"fanout_read":   func(cfg runConfig) (*outcome, error) { return runRead(cfg, true) },
	"live_ingest":   runLive,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", names)
		return 2
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: scratch directory: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, dir: dir, log: stderr}
	probe := hostProbe(nil)
	out, err := w(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res, err := result(out, cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if out.checkErr != nil {
		fmt.Fprintf(stderr, "perfbench: %s: output check failed: %v\n", *name, out.checkErr)
	}
	if out.firstFailure != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %d operations failed, the first: %v\n", *name, out.failed, out.firstFailure)
	}
	out.noise["host_probe_ms"] = median(hostProbe(probe))
	out.noise["gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	out.noise["nproc"] = float64(runtime.NumCPU())
	noise, _ := json.Marshal(map[string]any{"noise": out.noise})
	fmt.Fprintln(stdout, string(noise))
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	return 0
}
