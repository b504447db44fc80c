package mesh

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	orig := KuhnBox(BoxSpec{NX: 3, NY: 2, NZ: 2, Jitter: 0.15, Seed: 7})
	orig.Name = "roundtrip"
	var buf bytes.Buffer
	if err := Encode(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "roundtrip" {
		t.Fatalf("name %q", got.Name)
	}
	if got.NCells() != orig.NCells() || got.NFaces() != orig.NFaces() {
		t.Fatalf("shape changed: cells %d->%d faces %d->%d",
			orig.NCells(), got.NCells(), orig.NFaces(), got.NFaces())
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range orig.Verts {
		if orig.Verts[i] != got.Verts[i] {
			t.Fatalf("vertex %d changed: %v -> %v", i, orig.Verts[i], got.Verts[i])
		}
	}
	for c := range orig.Cells {
		if orig.Cells[c] != got.Cells[c] {
			t.Fatalf("cell %d changed: %v -> %v", c, orig.Cells[c], got.Cells[c])
		}
	}
}

func TestEncodeRejectsDerivedMesh(t *testing.T) {
	m := RegularHex(2, 2, 2)
	var buf bytes.Buffer
	if err := Encode(&buf, m); err == nil {
		t.Fatal("encoded a mesh with no vertex table")
	}
}

func TestEncodeRejectsWhitespaceName(t *testing.T) {
	m := KuhnBox(BoxSpec{NX: 1, NY: 1, NZ: 1})
	m.Name = "bad name"
	var buf bytes.Buffer
	if err := Encode(&buf, m); err == nil {
		t.Fatal("whitespace name accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"bad header":     "notamesh 1\n",
		"bad version":    "sweepmesh 99\nname x\nverts 4\n",
		"too few verts":  "sweepmesh 1\nname x\nverts 2\n0 0 0\n1 0 0\ncells 1\n0 1 0 1\n",
		"no cells":       "sweepmesh 1\nname x\nverts 4\n0 0 0\n1 0 0\n0 1 0\n0 0 1\ncells 0\n",
		"bad cell index": "sweepmesh 1\nname x\nverts 4\n0 0 0\n1 0 0\n0 1 0\n0 0 1\ncells 1\n0 1 2 9\n",
		"truncated":      "sweepmesh 1\nname x\nverts 4\n0 0 0\n",
	}
	for what, text := range cases {
		if _, err := Decode(strings.NewReader(text)); err == nil {
			t.Fatalf("%s: decode succeeded", what)
		}
	}
}

func TestDecodeRepairsOrientation(t *testing.T) {
	// A negatively oriented tet in the file must be repaired on load.
	text := "sweepmesh 1\nname flip\nverts 4\n0 0 0\n0 1 0\n1 0 0\n0 0 1\ncells 1\n0 1 2 3\n"
	m, err := Decode(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("orientation not repaired: %v", err)
	}
}

// TestDecodeHugeCountAllocatesLittle: the header's counts are claims the
// body has to back. A short input claiming 2⁴⁴ vertices or 2⁵⁰ cells
// fails at its end, wrapping io.EOF, having allocated under 1 MB.
func TestDecodeHugeCountAllocatesLittle(t *testing.T) {
	cases := map[string]string{
		"verts": "sweepmesh 1\nname x\nverts 17592186044416\n0 0 0\n",
		"cells": "sweepmesh 1\nname x\nverts 4\n0 0 0\n1 0 0\n0 1 0\n0 0 1\ncells 1125899906842624\n0 1 2 3\n",
	}
	for what, text := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(strings.NewReader(text))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.EOF) {
			t.Errorf("%s: err = %v, want one wrapping io.EOF", what, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: decoding a short input allocated %d bytes", what, d)
		}
	}
}
