// Command benchjson converts `go test -bench` output on stdin into a
// JSON benchmark baseline. The JSON carries both parsed per-benchmark
// records (package, name, GOMAXPROCS, iterations, ns/op, B/op,
// allocs/op) and the raw benchmark lines, so the file stays consumable
// by benchstat. Multi-package runs are supported: each record carries
// the package whose `pkg:` header preceded it.
//
//	go test -bench=. -benchmem -count=5 -run='^$' | benchjson > BENCH_2026-08-05.json
//	go test -bench=. -benchmem -run='^$' ./... | benchjson > BENCH_all.json
//	jq -r .raw BENCH_2026-08-05.json | benchstat old.txt -
//
// `make bench-baseline` wraps the first command; see the Observability
// section of README.md.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// Record is one parsed benchmark result line. Procs is the GOMAXPROCS
// the benchmark ran at, from the name's -N suffix (go test omits the
// suffix at 1).
type Record struct {
	Pkg         string  `json:"pkg,omitempty"`
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Baseline is the file format: metadata, parsed records, and the raw
// benchmark text (goos/goarch/pkg/cpu headers plus result lines) for
// benchstat. Pkg is set only when every record comes from one package;
// a multi-package run leaves it empty and each Record names its own.
type Baseline struct {
	Date    string   `json:"date"`
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	Records []Record `json:"records"`
	Raw     string   `json:"raw"`
}

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, out io.Writer) error {
	base := Baseline{Date: time.Now().UTC().Format("2006-01-02")}
	var raw strings.Builder
	pkg := ""
	pkgs := make(map[string]bool)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			base.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			base.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			base.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		}
		if keepRaw(line) {
			raw.WriteString(line)
			raw.WriteByte('\n')
		}
		if rec, ok := parseLine(line); ok {
			rec.Pkg = pkg
			pkgs[pkg] = true
			base.Records = append(base.Records, rec)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(base.Records) == 0 {
		return fmt.Errorf("no benchmark result lines on stdin (expected `go test -bench` output)")
	}
	if len(pkgs) == 1 {
		base.Pkg = pkg
	}
	base.Raw = raw.String()
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(base)
}

// keepRaw selects the lines benchstat needs: the environment header and
// the Benchmark result lines (PASS/ok trailers and -v noise are dropped).
func keepRaw(line string) bool {
	return strings.HasPrefix(line, "goos: ") ||
		strings.HasPrefix(line, "goarch: ") ||
		strings.HasPrefix(line, "pkg: ") ||
		strings.HasPrefix(line, "cpu: ") ||
		strings.HasPrefix(line, "Benchmark")
}

// parseLine parses one result line of the standard form
//
//	BenchmarkName-8   120   9876543 ns/op   1234 B/op   56 allocs/op
//
// Returns ok=false for anything else.
func parseLine(line string) (Record, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Record{}, false
	}
	f := strings.Fields(line)
	if len(f) < 4 || f[3] != "ns/op" {
		return Record{}, false
	}
	iters, err1 := strconv.ParseInt(f[1], 10, 64)
	ns, err2 := strconv.ParseFloat(f[2], 64)
	if err1 != nil || err2 != nil {
		return Record{}, false
	}
	rec := Record{Name: f[0], Procs: procsOf(f[0]), Iterations: iters, NsPerOp: ns}
	for i := 4; i+1 < len(f); i += 2 {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "B/op":
			rec.BytesPerOp = v
		case "allocs/op":
			rec.AllocsPerOp = v
		}
	}
	return rec, true
}

// procsOf returns the GOMAXPROCS encoded in a benchmark name's -N
// suffix, or 1 when there is none.
func procsOf(name string) int {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n < 1 {
		return 1
	}
	return n
}
