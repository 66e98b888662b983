// Command bench is the repository's one benchmark: four fixed workloads,
// each a seeded op list run in rounds against a topology the benchmark
// assembles itself from the public constructors, with every rate and cost
// reported as the median across rounds. See README.md.
//
//	go run ./bench                          every workload, end to end and traced
//	go run ./bench -workload pull-hot       one workload, end-to-end metrics
//	go run ./bench -workload pull-hot -trace 1   its per-layer metrics
//	go run ./bench -selfcheck               the whole benchmark twice, gaps against bounds
//
// With -workload the last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"bytes"
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
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

const (
	defaultSeed    = 1
	defaultSeconds = 10
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	rounds    int
	roundOps  int
	selfcheck bool
	out       string
	benchmark string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all, each in its own process)")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed the op lists are drawn from")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured window per run; rounds repeat until it is filled")
	flag.IntVar(&o.trace, "trace", 0, "1: the traced one-client run and its per-layer metrics")
	flag.IntVar(&o.rounds, "rounds", 0, "run exactly this many rounds instead of filling -seconds")
	flag.IntVar(&o.roundOps, "round-ops", 0, "override the workload's ops per round")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the whole benchmark twice and compare against BENCHMARK.json's bounds")
	flag.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for result.json and trace-<workload>.json")
	flag.StringVar(&o.benchmark, "benchmark", "BENCHMARK.json", "benchmark definition (bounds for -selfcheck)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	var err error
	switch {
	case o.selfcheck:
		err = selfcheck(&o, os.Stdout)
	case o.workload == "":
		err = runAll(&o, os.Stdout)
	default:
		err = runOne(&o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned by a run whose outputs were wrong.
var errIncorrect = errors.New("benchmark outputs incorrect")

// driverResult is the line a single-workload run ends its output with.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process.
func runOne(o *options, stdout io.Writer) error {
	wl := findWorkload(o.workload)
	if wl == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	cfg := &runConfig{wl: wl, seed: o.seed, seconds: o.seconds, rounds: o.rounds, roundOps: o.roundOps, setups: defaultSetups,
		sha256Burst: sha256Burst, floorBurst: floorBurst, trace: o.trace != 0}
	ctx := context.Background()

	var rec *record
	var err error
	names := endToEnd
	if cfg.trace {
		var spans []span
		rec, spans, err = runTraced(ctx, cfg)
		if err == nil {
			// The last traced round is kept: every round is the same op list.
			err = writeJSON(filepath.Join(o.out, "trace-"+wl.name+".json"), roundSpans(spans, rec.Rounds), false)
		}
		names = perLayer
	} else {
		rec, err = runEndToEnd(ctx, cfg)
	}
	if err != nil {
		return err
	}
	if err := saveRecord(filepath.Join(o.out, "result.json"), rec); err != nil {
		return err
	}
	printRecord(os.Stderr, rec)

	res := driverResult{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]driverMetric{}}
	for _, n := range names {
		m, ok := rec.Metrics[n.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", wl.name, n.name)
		}
		res.Metrics[n.name] = driverMetric{Value: m.Value, Unit: n.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
		return err
	}
	if !rec.Correct {
		return fmt.Errorf("%s: %w: %d of %d ops failed: %s", wl.name, errIncorrect, rec.Failed, rec.Attempted, rec.Error)
	}
	return nil
}

// printRecord prints every metric the record holds, in table order.
func printRecord(w io.Writer, rec *record) {
	mode := "end to end"
	if rec.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s (%s): seed %d, %d ops/round x %d rounds, %.1f s measured, %d attempted, %d failed, client idle %.2f%%\n",
		rec.Workload, mode, rec.Seed, rec.OpsPerRound, rec.Rounds, rec.MeasuredS, rec.Attempted, rec.Failed, 100*rec.ClientIdleShare)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for i, names := range [][]struct{ name, unit string }{endToEnd, ungated, perLayer} {
		note := ""
		if i == 1 {
			note = "(not gated)"
		}
		for _, n := range names {
			if m, ok := rec.Metrics[n.name]; ok {
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", n.name, m.Value, n.unit, note)
			}
		}
	}
	tw.Flush()
}

// saveRecord replaces the record of the same workload and mode in the
// result file, which holds the latest record of each.
func saveRecord(path string, rec *record) error {
	var all []*record
	if b, err := os.ReadFile(path); err == nil {
		// A file this version cannot read is overwritten, not an error.
		_ = json.Unmarshal(b, &all)
	}
	kept := all[:0]
	for _, r := range all {
		if r.Workload != rec.Workload || r.Traced != rec.Traced {
			kept = append(kept, r)
		}
	}
	kept = append(kept, rec)
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Workload != kept[j].Workload {
			return kept[i].Workload < kept[j].Workload
		}
		return !kept[i].Traced && kept[j].Traced
	})
	return writeJSON(path, kept, true)
}

// writeJSON writes v to path, indented when indent is set (a trace of tens
// of thousands of spans is written compact).
func writeJSON(path string, v any, indent bool) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	marshal := json.Marshal
	if indent {
		marshal = func(v any) ([]byte, error) { return json.MarshalIndent(v, "", " ") }
	}
	b, err := marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func commitID() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100 (default)"
}

// --- every workload, each in its own process --------------------------------

// child runs one workload in a fresh process, so no workload inherits
// another's heap, caches or connection pools.
func child(o *options, workload string, trace int) (*driverResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
		"-rounds", strconv.Itoa(o.rounds), "-round-ops", strconv.Itoa(o.roundOps), "-out", o.out,
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res driverResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: parsing result: %w", workload, err)
	}
	return &res, nil
}

// runAll runs every workload end to end and traced and prints one table
// per metric family.
func runAll(o *options, stdout io.Writer) error {
	results := map[string]map[int]*driverResult{}
	for _, wl := range workloads {
		results[wl.name] = map[int]*driverResult{}
		for _, trace := range []int{0, 1} {
			res, err := child(o, wl.name, trace)
			if err != nil {
				return err
			}
			results[wl.name][trace] = res
		}
	}
	for trace, names := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		fmt.Fprintln(stdout)
		tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
		fmt.Fprint(tw, "metric\tunit")
		for _, wl := range workloads {
			fmt.Fprintf(tw, "\t%s", wl.name)
		}
		fmt.Fprintln(tw)
		for _, n := range names {
			fmt.Fprintf(tw, "%s\t%s", n.name, n.unit)
			for _, wl := range workloads {
				fmt.Fprintf(tw, "\t%.6g", results[wl.name][trace].Metrics[n.name].Value)
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
	fmt.Fprintf(stdout, "\nall outputs verified; records in %s\n", filepath.Join(o.out, "result.json"))
	return nil
}

// --- selfcheck ----------------------------------------------------------------

// benchmarkFile is the part of BENCHMARK.json the program reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// selfcheck runs every workload's end-to-end run twice on the same code,
// the second time starting from the other end of the workload list, and
// fails if any metric moved by more than its bound.
func selfcheck(o *options, stdout io.Writer) error {
	bf, err := readBenchmarkFile(o.benchmark)
	if err != nil {
		return err
	}
	var runs [2]map[string]*driverResult
	for pass := range runs {
		runs[pass] = map[string]*driverResult{}
		order := append([]workload(nil), workloads...)
		if pass == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, wl := range order {
			res, err := child(o, wl.name, 0)
			if err != nil {
				return err
			}
			runs[pass][wl.name] = res
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tfirst\tsecond\tgap\tbound\t")
	var over []string
	for _, m := range bf.EndToEnd {
		for _, wl := range workloads {
			a, b := runs[0][wl.name].Metrics[m.Name].Value, runs[1][wl.name].Metrics[m.Name].Value
			gap := math.Abs(b-a) / math.Abs(a)
			verdict := ""
			if gap > m.Bound {
				verdict = "OVER"
				over = append(over, m.Name+" on "+wl.name)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.2f%%\t%g%%\t%s\n", m.Name, wl.name, a, b, 100*gap, 100*m.Bound, verdict)
		}
	}
	tw.Flush()
	if len(over) > 0 {
		return errors.New("same code, two runs, gap over bound: " + strings.Join(over, "; "))
	}
	fmt.Fprintln(stdout, "selfcheck passed: every gap within its bound, no failed op")
	return nil
}
