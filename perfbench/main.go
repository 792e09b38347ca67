// Command perfbench is the repository benchmark. One process runs one
// workload against the dynagg packages and prints its metrics:
//
//	go run . --workload round-1m --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each exists and what it loads):
//
//	paper-figs   Figures 8, 9, 10a, 10b, 11 regenerated at the default scale
//	round-1m     round engine, columnar Push-Sum-Revert, 1,000,000 hosts
//	live-tcp-1m  live engine, columnar Push-Sum-Revert over loopback TCP
//	gateway-read one HTTP client reading a gateway over a 64-host population
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 the layers are wrapped in timing
// decorators, spans are written under .bench_build/spans, and the JSON
// object carries the per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// params is what every workload receives from the command line.
type params struct {
	seed    uint64
	seconds time.Duration
	// rec is non-nil in a traced run: workloads wrap the layers they
	// drive in decorators that record into it.
	rec *recorder
}

// report is a workload's outcome. End-to-end and per-layer metrics are
// filled by every workload; main prints one set depending on --trace.
type report struct {
	attempted, failed int64
	logged            int // failures printed so far
	// setups holds the wall time of each set-up repetition.
	setups []time.Duration
	// step is the median wall time of one unit of the workload's work:
	// a suite pass, an Engine.Step, a live tick, a GET.
	step time.Duration
	// peakRSS is the resident-set high-water mark at the end of the
	// timed phase, in MB.
	peakRSS float64
	// display lists the workload's headline numbers under their own
	// names (round_ms, tick_ms, ...), printed before the JSON line.
	display []metric
	// layers holds the per-layer metrics of a traced run.
	layers map[string]metric
}

type metric struct {
	name  string
	value float64
	unit  string
}

type workload func(p params) (*report, error)

var workloads = map[string]workload{
	"paper-figs":   runPaperFigs,
	"round-1m":     runRound1M,
	"live-tcp-1m":  runLiveTCP1M,
	"gateway-read": runGatewayRead,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-figs, round-1m, live-tcp-1m, gateway-read")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 wraps the layers in timing decorators and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	// GOMAXPROCS = nproc: Go before 1.25 ignores cgroup quotas, so pin
	// it to the CPUs the process may run on and print it.
	runtime.GOMAXPROCS(runtime.NumCPU())

	p := params{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second))}
	if *trace == 1 {
		p.rec = newRecorder()
	}
	rep, err := w(p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if p.rec != nil {
		path, err := p.rec.writeOut(*name)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", p.rec.len(), path)
	}

	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d gomaxprocs %d\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	for _, m := range rep.display {
		fmt.Fprintf(stdout, "  %-24s %14.4f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(stdout, "  %-24s %d/%d\n", "failed/attempted", rep.failed, rep.attempted)

	var metrics []metric
	if p.rec == nil {
		metrics = endToEnd(rep)
	} else {
		metrics = layerMetrics(rep)
	}
	line, err := resultJSON(rep, metrics)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// endToEnd derives the end-to-end metrics every workload reports.
func endToEnd(rep *report) []metric {
	return []metric{
		{"setup_s", medianDur(rep.setups).Seconds(), "s"},
		{"peak_rss_mb", rep.peakRSS, "MB"},
		{"step_ms", ms(rep.step), "ms"},
	}
}

// layerMetrics lists every per-layer metric; layers a workload does not
// load read 0.
func layerMetrics(rep *report) []metric {
	out := make([]metric, 0, len(layerNames))
	for _, l := range layerNames {
		m, ok := rep.layers[l.name]
		if !ok {
			m = metric{l.name, 0, l.unit}
		}
		out = append(out, m)
	}
	return out
}

// resultJSON renders the final stdout line.
func resultJSON(rep *report, metrics []metric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(metrics))
	for _, m := range metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, ms})
	if err != nil {
		return "", fmt.Errorf("encoding result: %w", err)
	}
	return string(b), nil
}
