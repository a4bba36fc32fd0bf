// benchjson converts `go test -bench` text output into a versioned JSON
// document ("warped.bench/v1") so benchmark trajectories can be archived,
// diffed and plotted alongside the simulator's warped.sim.result/v1 files.
//
// It reads benchmark text on stdin (or from a file argument) and writes JSON
// to stdout. The text input is passed through untouched for benchstat; this
// tool only adds a machine-readable sibling:
//
//	go test -bench . -benchmem | tee bench.txt | benchjson -stamp "$(date -u +%Y%m%dT%H%M%SZ)" > bench.json
//
// With -compare it reads two such documents instead and prints, per
// benchmark and unit, each side's median and median absolute deviation and
// the ratio of the medians, marking the rows that moved by more than 20%
// and by more than both deviations. It exits non-zero only when a document
// cannot be read:
//
//	benchjson -compare BENCH_seed.json bench.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/version"
)

// Schema identifies the JSON layout emitted by this tool.
const Schema = "warped.bench/v1"

// Metric is one "value unit" pair of a benchmark result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string   `json:"name"`
	Procs      int      `json:"procs"` // GOMAXPROCS suffix (-N), 1 if absent
	Iterations int64    `json:"iterations"`
	Metrics    []Metric `json:"metrics"`
}

// Document is the top-level JSON object.
type Document struct {
	Schema     string      `json:"schema"`
	Stamp      string      `json:"stamp,omitempty"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	CPU        string      `json:"cpu,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	stamp := flag.String("stamp", "", "timestamp or label recorded in the document")
	showVer := flag.Bool("version", false, "print the build identity and exit")
	cmp := flag.Bool("compare", false, "compare two warped.bench/v1 documents: -compare old.json new.json")
	flag.Parse()
	if *showVer {
		fmt.Println(version.String("benchjson"))
		return
	}
	if *cmp {
		if flag.NArg() != 2 {
			fatal("-compare takes two documents: old.json new.json")
		}
		if err := compare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal("%v", err)
		}
		return
	}

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		in = f
	}

	doc, err := parse(in)
	if err != nil {
		fatal("%v", err)
	}
	doc.Stamp = *stamp

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatal("%v", err)
	}
}

// parse scans go-test benchmark output. Result lines have the shape
//
//	BenchmarkName[-procs] <tab> iterations <tab> value unit [value unit ...]
//
// Header lines (goos:, goarch:, pkg:, cpu:) fill document metadata; anything
// else is ignored.
func parse(r io.Reader) (*Document, error) {
	doc := &Document{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: []Benchmark{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "BenchmarkFoo--- FAIL" noise
		}
		b := Benchmark{Name: fields[0], Procs: 1, Iterations: iters, Metrics: []Metric{}}
		if i := strings.LastIndex(b.Name, "-"); i > 0 {
			if p, err := strconv.Atoi(b.Name[i+1:]); err == nil && p > 0 {
				b.Name, b.Procs = b.Name[:i], p
			}
		}
		// Remaining fields come in "value unit" pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad value %q in line %q", fields[i], line)
			}
			b.Metrics = append(b.Metrics, Metric{Value: v, Unit: fields[i+1]})
		}
		doc.Benchmarks = append(doc.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchjson: %w", err)
	}
	return doc, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
