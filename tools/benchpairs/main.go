// Command benchpairs runs the system benchmark (BENCHMARK.json) on a
// parent commit and on the working tree in alternating pairs and
// prints the table EXPERIMENTS.md records for a performance change:
// per workload and end-to-end metric, each side's median [q1, q3],
// change / parent, each side's spread, the pairs the change won, and a
// verdict.
//
//	make bench-pairs PARENT=HEAD~1 [N=10] [SEED=1]
//	go run ./tools/benchpairs -parent HEAD~1 -n 10 -seed 1 [-workloads a,b] [-work dir] [-log runs.jsonl]
//
// The parent is exported with `git archive` into the work directory (a
// plain tree, nothing registered in .git), so both sides build what
// they run from their own sources. Nothing else may run on the host
// while it measures.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json this tool reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	var (
		parent    = flag.String("parent", "", "commit to compare the working tree against (required)")
		n         = flag.Int("n", 10, "pairs of runs per workload")
		seed      = flag.Uint64("seed", 1, "benchmark input seed, the same for every run")
		workloads = flag.String("workloads", "", "comma-separated subset of BENCHMARK.json's workloads (default: all)")
		work      = flag.String("work", "", "directory for the parent's tree (default: a new temporary one, removed afterwards)")
		logPath   = flag.String("log", "", "append every run's JSON line here")
	)
	flag.Parse()
	if *parent == "" || *n <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*parent, *n, *seed, *workloads, *work, *logPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func run(parent string, n int, seed uint64, only, work, logPath string) error {
	root, err := gitOutput(".", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range sp.Workloads {
		if only == "" || contains(strings.Split(only, ","), w.Name) {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no workload of BENCHMARK.json matches %q", only)
	}

	parentRev, err := gitOutput(root, "rev-parse", "--short", parent)
	if err != nil {
		return err
	}
	if work == "" {
		if work, err = os.MkdirTemp("", "benchpairs-"); err != nil {
			return err
		}
		defer os.RemoveAll(work)
	}
	parentDir := filepath.Join(work, "parent-"+parentRev)
	if err := exportTree(root, parent, parentDir); err != nil {
		return err
	}

	var logw io.Writer = io.Discard
	if logPath != "" {
		f, err := os.OpenFile(logPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		logw = f
	}

	sides := [2]struct{ name, dir string }{{"parent", parentDir}, {"change", root}}
	// runs[workload][side] holds that side's results in pair order.
	runs := make(map[string]*[2][]result)
	for _, w := range names {
		runs[w] = new([2][]result)
	}
	for pair := 0; pair < n; pair++ {
		for _, w := range names {
			for k := 0; k < 2; k++ {
				s := (pair + k) % 2 // even pairs run the parent first, odd ones the change
				fmt.Fprintf(os.Stderr, "pair %d/%d %s %s\n", pair+1, n, w, sides[s].name)
				line, res, err := benchOnce(sides[s].dir, w, seed, sp.RunSeconds)
				if err != nil {
					return fmt.Errorf("pair %d, %s on %s: %w", pair+1, w, sides[s].name, err)
				}
				fmt.Fprintf(logw, `{"pair":%d,"workload":%q,"side":%q,"seed":%d,"result":%s}`+"\n", pair+1, w, sides[s].name, seed, line)
				runs[w][s] = append(runs[w][s], res)
			}
		}
	}

	fmt.Printf("%d alternating pairs, seed %d, %d s a run; parent %s, change = working tree on %s.\n", n, seed, sp.RunSeconds, parentRev, mustRev(root))
	fmt.Println("Median [q1, q3]; a pair is won by the side with the better value, ties by neither.")
	fmt.Println()
	fmt.Println("| workload | metric | parent | change | change / parent | spread parent / change | pairs won | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, w := range names {
		for _, m := range sp.EndToEnd {
			p, c := values(runs[w][0], m.Name), values(runs[w][1], m.Name)
			v := judge(m, p, c)
			fmt.Printf("| `%s` | `%s` (%s) | %s | %s | %.3f | %.3f / %.3f | %s | %s |\n",
				w, m.Name, m.Unit, summary(p), summary(c), v.ratio, spread(p), spread(c), v.pairs(len(p)), v.verdict)
		}
		pf, pa := failures(runs[w][0])
		cf, ca := failures(runs[w][1])
		fmt.Printf("| `%s` | failed / attempted | %d / %d | %d / %d | | | | %s |\n", w, pf, pa, cf, ca, failVerdict(runs[w][0], runs[w][1]))
	}
	return nil
}

// benchOnce runs the benchmark once in dir and returns its last stdout
// line, raw and parsed.
func benchOnce(dir, workload string, seed uint64, seconds int) (string, result, error) {
	cmd := exec.Command("go", "run", "-C", "bench", ".",
		"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	last := ""
	for sc := bufio.NewScanner(&out); sc.Scan(); {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return "", res, runErr
		}
		return "", res, fmt.Errorf("last output line is not the result object: %q", last)
	}
	// A run that exits non-zero because operations failed still counts:
	// its failures are part of the comparison.
	return last, res, nil
}

// exportTree writes commit rev of the repository at root into dir as a
// plain tree.
func exportTree(root, rev, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "-C", root, "archive", rev)
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	return untar.Wait()
}

func gitOutput(dir string, args ...string) (string, error) {
	out, err := exec.Command("git", append([]string{"-C", dir}, args...)...).Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

func mustRev(root string) string {
	rev, err := gitOutput(root, "rev-parse", "--short", "HEAD")
	if err != nil {
		return "unknown"
	}
	return rev
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if strings.TrimSpace(v) == s {
			return true
		}
	}
	return false
}

func values(rs []result, name string) []float64 {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = r.Metrics[name].Value
	}
	return vs
}

func failures(rs []result) (failed, attempted int) {
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

// failVerdict compares the shares of operations that failed and says
// whether every run's score check passed.
func failVerdict(parent, change []result) string {
	pf, pa := failures(parent)
	cf, ca := failures(change)
	v := "no larger share failed"
	switch {
	case pa == 0 || ca == 0:
		v = "no operations"
	case float64(cf)/float64(ca) > float64(pf)/float64(pa):
		v = "**LARGER SHARE FAILED**"
	}
	for _, r := range append(append([]result(nil), parent...), change...) {
		if !r.Correct {
			return v + "; **a run's score check failed**"
		}
	}
	return v + "; every score check passed"
}

// quartiles returns q1, the median and q3 by the exclusive method
// (position p·(n+1), as Python's statistics.quantiles(n=4) and the
// reference tables in bench/README.md), clamped to the sample.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		i := int(pos)
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// spread is the interquartile range as a share of the median, the
// benchmark's own measure of run-to-run noise.
func spread(vs []float64) float64 {
	q1, med, q3 := quartiles(vs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func summary(vs []float64) string {
	q1, med, q3 := quartiles(vs)
	return fmt.Sprintf("%s [%s, %s]", sig4(med), sig4(q1), sig4(q3))
}

// sig4 prints about four significant digits without an exponent, so
// 37210 items/s and 0.0314 ms read alike in one table.
func sig4(x float64) string {
	decimals := 4
	for a := math.Abs(x); a >= 1 && decimals > 0; a /= 10 {
		decimals--
	}
	return strconv.FormatFloat(x, 'f', decimals, 64)
}

type judgement struct {
	ratio   float64 // change's median / parent's
	won     int     // pairs in which the change had the better value
	ties    int     // pairs with equal values, won by neither side
	verdict string
}

func (j judgement) pairs(n int) string {
	s := fmt.Sprintf("%d of %d", j.won, n)
	if j.ties > 0 {
		s += fmt.Sprintf(" (%d ties)", j.ties)
	}
	return s
}

// judge applies the rule of the choosing-metrics guide. A gain needs
// the change to win nine tenths of the pairs and the medians to differ
// by more than the parent's interquartile range. Otherwise the metric
// is unresolved where the parent's own spread (IQR / median) exceeds
// the metric's bound, worse where the change's median is beyond the
// bound on the wrong side, and within the bound if neither.
func judge(m metric, parent, change []float64) judgement {
	sign := 1.0 // positive gain = better
	if m.Better == "lower" {
		sign = -1
	}
	var j judgement
	for i := range parent {
		switch d := sign * (change[i] - parent[i]); {
		case d > 0:
			j.won++
		case d == 0:
			j.ties++
		}
	}
	pq1, pmed, pq3 := quartiles(parent)
	_, cmed, _ := quartiles(change)
	if pmed != 0 {
		j.ratio = cmed / pmed
	}
	iqr := pq3 - pq1
	gain := sign * (cmed - pmed)
	switch {
	case 10*j.won >= 9*len(parent) && gain > iqr:
		j.verdict = "**better**"
	case spread(parent) > m.Bound:
		j.verdict = fmt.Sprintf("UNRESOLVED (parent spread %.3f > bound %g)", spread(parent), m.Bound)
	case pmed != 0 && -gain/math.Abs(pmed) > m.Bound:
		j.verdict = fmt.Sprintf("**WORSE** beyond bound %g", m.Bound)
	default:
		j.verdict = fmt.Sprintf("within bound %g", m.Bound)
	}
	return j
}
