// Response-byte conformance corpus: the canonical encoding of every
// case below is snapshotted under testdata/golden/ and diffed on every
// run, so a change anywhere under the compute endpoints — the model,
// the Monte-Carlo engine, the grid intensities every Compile reads —
// that moves a single served byte fails here. After an intentional
// model change, regenerate with:
//
//	go test ./api -run TestGoldenResponses -update
//
// and review the diff like any other code change.
package api

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden response files")

// goldenCase is one request body posted to one endpoint.
type goldenCase struct {
	name, endpoint, body string
}

// goldenCases covers /v1/mc for every domain × {fpga:asic, gpu:asic,
// fpga:cpu} × napps {1, 5} at 300 draws, plus one evaluate, compare,
// sweep and fleet body per domain.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, d := range []string{"DNN", "ImgProc", "Crypto"} {
		for _, pair := range [][2]string{{"fpga", "asic"}, {"gpu", "asic"}, {"fpga", "cpu"}} {
			for _, n := range []int{1, 5} {
				cases = append(cases, goldenCase{
					name:     fmt.Sprintf("mc-%s-%s-%s-n%d", d, pair[0], pair[1], n),
					endpoint: "mc",
					body: fmt.Sprintf(`{"domain":%q,"samples":300,"platforms":[%q,%q],"workload":{"napps":%d}}`,
						d, pair[0], pair[1], n),
				})
			}
		}
		cases = append(cases,
			goldenCase{"evaluate-" + d, "evaluate", fmt.Sprintf(
				`{"platforms":[{"domain":%q,"kind":"fpga"},{"domain":%q,"kind":"asic"}],"workload":{"napps":6,"lifetime_years":2,"volume":1e6}}`, d, d)},
			goldenCase{"compare-" + d, "compare", fmt.Sprintf(`{"domain":%q,"napps":3}`, d)},
			goldenCase{"sweep-" + d, "sweep", fmt.Sprintf(
				`{"domain":%q,"axis":"lifetime","from":0.5,"to":4,"points":8}`, d)},
			goldenCase{"fleet-" + d, "fleet", fmt.Sprintf(`{"domain":%q}`, d)},
		)
	}
	return cases
}

// goldenResponse decodes a case's body strictly, runs it through its
// endpoint's table entry and returns the canonical response encoding.
func goldenResponse(t *testing.T, e *Evaluator, c goldenCase) []byte {
	t.Helper()
	ep, err := LookupEndpoint(c.endpoint)
	if err != nil {
		t.Fatal(err)
	}
	req := ep.NewRequest()
	if err := DecodeStrict(strings.NewReader(c.body), req); err != nil {
		t.Fatalf("decode %s: %v", c.body, err)
	}
	resp, err := ep.Run(context.Background(), e, ep.Normalized(req))
	if err != nil {
		t.Fatalf("run %s: %v", c.body, err)
	}
	out, err := EncodeJSON(resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenResponses diffs every case against its snapshot,
// regenerating them under -update, and fails on a snapshot that no
// case produces.
func TestGoldenResponses(t *testing.T) {
	e := NewEvaluator(0)
	dir := filepath.Join("testdata", "golden")
	known := map[string]bool{}
	for _, c := range goldenCases() {
		path := filepath.Join(dir, c.name+".json")
		known[filepath.Base(path)] = true
		t.Run(c.name, func(t *testing.T) {
			got := goldenResponse(t, e, c)
			if *update {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s (regenerate with -update): %v", path, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s drifted from its golden snapshot (%d vs %d bytes):\n got: %s\nwant: %s",
					path, len(got), len(want), got, want)
			}
		})
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if !known[ent.Name()] {
			t.Errorf("stale golden file %s: no case produces it", ent.Name())
		}
	}
}
