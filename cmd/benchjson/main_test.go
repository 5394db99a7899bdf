package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: soidomino
cpu: Example CPU @ 2.00GHz
BenchmarkMapDes-8   	     120	   9876543 ns/op	 1234567 B/op	    8901 allocs/op
BenchmarkTableI-8   	    5000	    250000 ns/op
--- BENCH: noise line
PASS
ok  	soidomino	3.210s
`

func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(out.Bytes(), &base); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if base.Goos != "linux" || base.Goarch != "amd64" || base.Pkg != "soidomino" ||
		base.CPU != "Example CPU @ 2.00GHz" {
		t.Errorf("header wrong: %+v", base)
	}
	if len(base.Records) != 2 {
		t.Fatalf("got %d records, want 2", len(base.Records))
	}
	r := base.Records[0]
	if r.Name != "BenchmarkMapDes-8" || r.Pkg != "soidomino" || r.Procs != 8 ||
		r.Iterations != 120 || r.NsPerOp != 9876543 ||
		r.BytesPerOp != 1234567 || r.AllocsPerOp != 8901 {
		t.Errorf("record 0 wrong: %+v", r)
	}
	if base.Records[1].BytesPerOp != 0 {
		t.Errorf("record 1 picked up phantom B/op: %+v", base.Records[1])
	}
	// Raw must keep exactly what benchstat consumes.
	if strings.Contains(base.Raw, "PASS") || strings.Contains(base.Raw, "noise") {
		t.Errorf("raw kept non-benchmark lines:\n%s", base.Raw)
	}
	for _, want := range []string{"goos: linux", "cpu: Example", "BenchmarkTableI-8"} {
		if !strings.Contains(base.Raw, want) {
			t.Errorf("raw missing %q", want)
		}
	}
}

// multiPkg is `go test -bench ./...` output over two packages, one of
// them at GOMAXPROCS 1 (no -N suffix) and one with a dashed sub-benchmark
// name.
const multiPkg = `goos: linux
goarch: amd64
pkg: soidomino/internal/blif
cpu: Example CPU @ 2.00GHz
BenchmarkParseBLIF   	    1000	   1500000 ns/op	  400000 B/op	    3000 allocs/op
PASS
ok  	soidomino/internal/blif	1.500s
goos: linux
goarch: amd64
pkg: soidomino/internal/mapper
cpu: Example CPU @ 2.00GHz
BenchmarkDP/des/soi-pareto-2   	     300	   4000000 ns/op
PASS
ok  	soidomino/internal/mapper	2.000s
`

func TestRunMultiPackage(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(multiPkg), &out); err != nil {
		t.Fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(out.Bytes(), &base); err != nil {
		t.Fatal(err)
	}
	if base.Pkg != "" {
		t.Errorf("baseline pkg = %q, want empty for a multi-package run", base.Pkg)
	}
	if base.CPU != "Example CPU @ 2.00GHz" {
		t.Errorf("cpu = %q", base.CPU)
	}
	want := []struct {
		pkg, name string
		procs     int
	}{
		{"soidomino/internal/blif", "BenchmarkParseBLIF", 1},
		{"soidomino/internal/mapper", "BenchmarkDP/des/soi-pareto-2", 2},
	}
	if len(base.Records) != len(want) {
		t.Fatalf("got %d records, want %d", len(base.Records), len(want))
	}
	for i, w := range want {
		r := base.Records[i]
		if r.Pkg != w.pkg || r.Name != w.name || r.Procs != w.procs {
			t.Errorf("record %d = {pkg %q, name %q, procs %d}, want %+v", i, r.Pkg, r.Name, r.Procs, w)
		}
	}
	// Raw keeps every header and result line, in input order, for benchstat.
	var wantRaw strings.Builder
	for _, line := range strings.Split(multiPkg, "\n") {
		if keepRaw(line) {
			wantRaw.WriteString(line + "\n")
		}
	}
	if base.Raw != wantRaw.String() {
		t.Errorf("raw =\n%s\nwant\n%s", base.Raw, wantRaw.String())
	}
	if strings.Count(base.Raw, "pkg: ") != 2 {
		t.Errorf("raw lost a pkg header:\n%s", base.Raw)
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader("no benchmarks here\n"), &out); err == nil {
		t.Fatal("expected an error on input without benchmark lines")
	}
}
