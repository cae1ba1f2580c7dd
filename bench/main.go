// Command bench is the repository's system benchmark: it starts the
// real cmd/serve (and cmd/embshard) as child processes, drives
// POST /rank over loopback HTTP from this one process, checks every
// score, and prints every metric BENCHMARK.json names. README.md has
// the workloads, the metrics and how they should interact.
//
//	go run -C bench . -seed 1                 # five workloads, end-to-end metrics
//	go run -C bench . -seed 1 -traced         # five workloads, per-layer metrics
//	go run -C bench . -seed 1 -repeat 5       # spread of every metric against its bound
//	go run -C bench . -workload rmc2_zipf -seed 7 -seconds 32 -trace 0   # one run, as the pipeline makes it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"recsys/internal/tensor"
)

// spec is BENCHMARK.json: the one place metric names, units, bounds
// and the run length are written down.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("bench: BENCHMARK.json: %w", err)
	}
	// The pipeline gates on the workloads the file lists; the program may
	// know more, which are run by name or by the default of all.
	for _, w := range sp.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			return nil, fmt.Errorf("bench: BENCHMARK.json: %w", err)
		}
	}
	return &sp, nil
}

// hostStamp names what the numbers were measured on; every output
// carries it.
func hostStamp(root string, seed uint64) string {
	commit := "unknown" // a checkout without .git
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d C=%d kernel=%s go=%s commit=%s seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), clientConns, tensor.KernelTier(), runtime.Version(), commit, seed)
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all five)")
		seed         = flag.Uint64("seed", 1, "input seed: request bodies and arrival times derive from it alone")
		seconds      = flag.Int("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "1 = report the per-layer metrics instead of the end-to-end ones")
		traced       = flag.Bool("traced", false, "same as -trace 1")
		repeat       = flag.Int("repeat", 0, "run the set N times on seeds seed..seed+N-1 and judge every metric's spread against its bound")
	)
	flag.Parse()
	if *traced {
		*trace = 1
	}

	// Children die with the program however it ends: the deferred call
	// covers a return and a panic on this goroutine, the handler below a
	// signal, and Pdeathsig (startChild) everything else.
	defer killChildren()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(130)
	}()

	if err := runAll(*workloadName, *seed, *seconds, *trace == 1, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

func runAll(only string, seed uint64, seconds int, traced bool, repeat int) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = sp.RunSeconds
	}
	set := workloads
	if only != "" {
		w, err := findWorkload(only)
		if err != nil {
			return err
		}
		set = []workload{w}
	}
	binDir, err := buildBinaries(root)
	if err != nil {
		return err
	}
	defs := sp.EndToEnd
	if traced {
		defs = sp.PerLayer
	}

	runs := max(repeat, 1)
	// history[workload][metric] collects one value per repeat.
	history := map[string]map[string][]float64{}
	failed := 0
	for i := 0; i < runs; i++ {
		runSeed := seed + uint64(i)
		fmt.Printf("host: %s\n", hostStamp(root, runSeed))
		for _, w := range set {
			var res *result
			if traced {
				res, err = runTraced(root, binDir, w, runSeed, seconds)
			} else {
				res, err = runEndToEnd(binDir, w, runSeed, seconds)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if err := report(w, defs, res); err != nil {
				return err
			}
			failed += res.failed
			if history[w.name] == nil {
				history[w.name] = map[string][]float64{}
			}
			for k, v := range res.values {
				history[w.name][k] = append(history[w.name][k], v)
			}
		}
	}
	if repeat > 1 && !traced {
		reportSpread(set, sp.EndToEnd, history)
	}
	if failed > 0 {
		return fmt.Errorf("bench: %d operations failed", failed)
	}
	return nil
}

// report prints one run: the phases' counts, every metric the run
// measured by name with its unit, and last the pipeline's JSON line,
// which carries every metric of defs (0 where the workload does not
// run the layer).
func report(w workload, defs []metricDef, res *result) error {
	fmt.Printf("== %s (%d items/request, %g rps open loop, SLA %v)\n", w.name, w.items, w.rate, w.sla)
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	if res.firstErr != nil {
		fmt.Printf("  first failure: %v\n", res.firstErr)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.Name] = true
		v, measured := res.values[d.Name]
		metrics[d.Name] = value{v, d.Unit}
		if measured {
			fmt.Printf("  %-32s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	for name := range res.values {
		if !known[name] {
			return fmt.Errorf("bench: %s measured %q, which BENCHMARK.json does not name", w.name, name)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// reportSpread is the -repeat self-check: for every end-to-end metric
// of every workload, the median and quartiles over the repeats and the
// spread between the quartiles as a share of the median, against the
// metric's bound. A metric whose spread exceeds its bound cannot
// resolve a regression of the size the bound names.
func reportSpread(set []workload, defs []metricDef, history map[string]map[string][]float64) {
	fmt.Printf("\n%-14s %-18s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "")
	for _, w := range set {
		for _, d := range defs {
			v := history[w.name][d.Name]
			if len(v) < 2 {
				continue
			}
			q1, q3 := quartiles(v)
			med := median(v)
			spread := (q3 - q1) / med
			verdict := "resolved"
			if spread > d.Bound {
				verdict = "UNRESOLVED"
			}
			fmt.Printf("%-14s %-18s %12.4f %12.4f %12.4f %8.4f %6.2f  %s\n", w.name, d.Name, med, q1, q3, spread, d.Bound, verdict)
		}
	}
}
