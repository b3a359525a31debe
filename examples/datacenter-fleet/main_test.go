package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden output file")

// TestRunGolden pins the example's report byte for byte. After an
// intentional model change, regenerate with:
//
//	go test ./examples/datacenter-fleet -update
func TestRunGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "output.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output drifted from %s:\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
