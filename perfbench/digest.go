package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"

	"rnuma/internal/addr"
	"rnuma/internal/stats"
)

// expected_seed0.json holds, per workload, the digests a seed-0 run must
// reproduce: the counters of every simulation and the bytes of every
// rendered report, computed at the commit that introduced the benchmark.
//
//go:embed expected_seed0.json
var expectedJSON []byte

var expected = func() map[string]map[string]string {
	var m map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: expected_seed0.json: %v", err))
	}
	return m
}()

// gate records digest got under name and, for seed 0, fails one
// operation unless it equals the committed digest.
func (b *bench) gate(name, got string) {
	b.digests[name] = got
	if b.seed != 0 {
		return
	}
	want := expected[b.workload][name]
	b.check(want == got, "seed-0 digest %s: got %s, want %q", name, got, want)
}

// printDigests writes the computed digests to the log in the layout of
// expected_seed0.json.
func (b *bench) printDigests() {
	data, _ := json.Marshal(map[string]map[string]string{b.workload: b.digests})
	fmt.Fprintf(b.log, "perfbench: digests %s\n", data)
}

func digestBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// runDigest digests every counter of a run: each int64 field in
// declaration order, the per-page refetch map, the per-node replacement
// split and the per-client counters. The telemetry timeline is left to
// the rendered reports.
func runDigest(r *stats.Run) string {
	h := sha256.New()
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Int64 {
			fmt.Fprintf(h, "%s=%d\n", v.Type().Field(i).Name, f.Int())
		}
	}
	fmt.Fprintf(h, "refetch=%s\n", r.RefetchDigest())
	nodes := make([]int, 0, len(r.PerNodeReplacements))
	for n := range r.PerNodeReplacements {
		nodes = append(nodes, int(n))
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		fmt.Fprintf(h, "repl %d=%d\n", n, r.PerNodeReplacements[addr.NodeID(n)])
	}
	for _, c := range r.Clients {
		fmt.Fprintf(h, "client %s %+v\n", c.Name, c.Counters)
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// runsDigest digests a set of runs keyed by name.
func runsDigest(keys []string, runs map[string]*stats.Run) string {
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s %s\n", k, runDigest(runs[k]))
	}
	return hex.EncodeToString(h.Sum(nil))
}
