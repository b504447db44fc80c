package dag

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"sweepsched/internal/rng"
)

const fromEdgesGoldenPath = "testdata/fromedges_golden.txt"

// fromEdgesDigest is one golden row: the counts FromEdges reports and an
// FNV-64a hash over every array it fills, in a fixed order.
func fromEdgesDigest(d *DAG, edges int) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, arr := range [][]int32{d.outStart, d.out, d.inStart, d.in, d.Level} {
		for _, x := range arr {
			binary.LittleEndian.PutUint32(buf[:], uint32(x))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("n=%d edges=%d removed=%d levels=%d fnv=%016x",
		d.N, edges, d.RemovedEdges, d.NumLevels, h.Sum64())
}

// edgeCase is one input of the golden table.
type edgeCase struct {
	name  string
	n     int
	edges [][2]int32
}

// fromEdgesGoldenCases are the edge lists behind the golden table: the two
// degenerate sizes, then seeded random lists of three kinds — acyclic
// (every edge ascends a random cell order), cyclic (free endpoints) and
// parallel (a cyclic list with a share of its edges repeated) — over cell
// counts from 2 to 61 and densities from sparse to about 4 edges a cell.
func fromEdgesGoldenCases() []edgeCase {
	cases := []edgeCase{{"empty-n0", 0, nil}, {"empty-n1", 1, nil}}
	r := rng.New(0xF20ED6E5)
	for i := 0; i < 240; i++ {
		n := 2 + r.Intn(60)
		e := r.Intn(4*n + 1)
		kind := [...]string{"acyclic", "cyclic", "parallel"}[i%3]
		rank := r.Perm(n)
		edges := make([][2]int32, 0, e)
		for len(edges) < e {
			a, b := r.Intn(n), r.Intn(n)
			if a == b {
				continue
			}
			if kind == "acyclic" && rank[a] > rank[b] {
				a, b = b, a
			}
			edges = append(edges, [2]int32{int32(a), int32(b)})
			if kind == "parallel" && r.Intn(3) == 0 {
				edges = append(edges, edges[r.Intn(len(edges))])
			}
		}
		cases = append(cases, edgeCase{fmt.Sprintf("%s-%03d", kind, i), n, edges})
	}
	return cases
}

// TestFromEdgesGolden pins FromEdges bit for bit: CSR contents, levels and
// the cycle break's choice of edges on every case above must hash to the
// committed table, which was generated before FromEdges was moved onto
// the Builder's CSR fill, peel and cycle break.
func TestFromEdgesGolden(t *testing.T) {
	golden, err := os.ReadFile(fromEdgesGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	cases := fromEdgesGoldenCases()
	if len(want) != len(cases) {
		t.Fatalf("%s has %d rows for %d cases", fromEdgesGoldenPath, len(want), len(cases))
	}
	cyclic := 0
	for i, c := range cases {
		d, err := FromEdges(c.n, c.edges)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d.RemovedEdges > 0 {
			cyclic++
		}
		if got := c.name + " " + fromEdgesDigest(d, len(c.edges)); got != want[i] {
			t.Errorf("row %d of %s:\n got  %s\n want %s", i+1, fromEdgesGoldenPath, got, want[i])
		}
	}
	if cyclic < len(cases)/3 {
		t.Fatalf("only %d of %d cases exercise the cycle break", cyclic, len(cases))
	}
}
