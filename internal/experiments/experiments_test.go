package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"greenfpga/internal/core"
	"greenfpga/internal/units"
)

func TestListOrderAndCoverage(t *testing.T) {
	ids := List()
	// Every paper table and figure must be present.
	want := []string{
		"table1", "table2", "table3",
		"fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"scenarios", "design-ablation", "yield-ablation", "recycling-sweep",
		"timeline-staggered",
	}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("missing experiment %q", w)
		}
	}
	// Tables come before figures, figures in numeric order.
	idx := map[string]int{}
	for i, id := range ids {
		idx[id] = i
	}
	if !(idx["table1"] < idx["fig2"] && idx["fig2"] < idx["fig4"] &&
		idx["fig9"] < idx["fig10"] && idx["fig10"] < idx["fig11"]) {
		t.Errorf("ordering: %v", ids)
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig99"); err == nil {
		t.Error("unknown id must error")
	}
}

func TestRunAllAndRender(t *testing.T) {
	outs, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(List()) {
		t.Fatalf("ran %d of %d experiments", len(outs), len(List()))
	}
	for _, o := range outs {
		if o.ID == "" || o.Title == "" {
			t.Errorf("experiment missing metadata: %+v", o)
		}
		if len(o.Tables)+len(o.Charts) == 0 {
			t.Errorf("%s produced nothing renderable", o.ID)
		}
		var buf bytes.Buffer
		if err := o.Render(&buf); err != nil {
			t.Errorf("%s render: %v", o.ID, err)
		}
		if !strings.Contains(buf.String(), o.ID) {
			t.Errorf("%s render missing header", o.ID)
		}
	}
}

func TestRenderMarkdownAndCSV(t *testing.T) {
	o, err := Run("table2")
	if err != nil {
		t.Fatal(err)
	}
	var md bytes.Buffer
	if err := o.RenderMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"## table2:", "| Testcase | DNN |", "| 4 | 7.42 | 1 |"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown missing %q:\n%s", want, md.String())
		}
	}
	var csv bytes.Buffer
	if err := o.RenderCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "Testcase,DNN,ImgProc,Crypto") {
		t.Errorf("csv:\n%s", csv.String())
	}
	// Charts render as fenced blocks, notes as bullets.
	fig, err := Run("fig4")
	if err != nil {
		t.Fatal(err)
	}
	md.Reset()
	if err := fig.RenderMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "```") || !strings.Contains(md.String(), "- DNN: A2F") {
		t.Errorf("fig4 markdown missing chart fences or notes:\n%.400s", md.String())
	}
}

func TestFig2Notes(t *testing.T) {
	o, err := Run("fig2")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(o.Notes, "\n")
	if !strings.Contains(joined, "lower-CFP") {
		t.Errorf("fig2 notes: %v", o.Notes)
	}
}

func TestFig4CrossoverNotes(t *testing.T) {
	o, err := Run("fig4")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(o.Notes, "\n")
	for _, want := range []string{"DNN: A2F", "ImgProc: A2F", "Crypto: A2F"} {
		if !strings.Contains(joined, want) {
			t.Errorf("fig4 notes missing %q: %v", want, o.Notes)
		}
	}
	if len(o.Charts) != 3 {
		t.Errorf("fig4 should chart all three domains, got %d", len(o.Charts))
	}
}

func TestFig5DominanceNotes(t *testing.T) {
	o, err := Run("fig5")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(o.Notes, "\n")
	if !strings.Contains(joined, "DNN: F2A crossover at 1.") {
		t.Errorf("fig5 notes missing DNN F2A: %v", o.Notes)
	}
	if !strings.Contains(joined, "ImgProc: no crossover; ASIC") {
		t.Errorf("fig5 notes missing ImgProc dominance: %v", o.Notes)
	}
	if !strings.Contains(joined, "Crypto: no crossover; FPGA") {
		t.Errorf("fig5 notes missing Crypto dominance: %v", o.Notes)
	}
}

func TestFig8ProducesContours(t *testing.T) {
	o, err := Run("fig8")
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Charts) != 3 {
		t.Fatalf("fig8 should render three heatmaps, got %d", len(o.Charts))
	}
	for _, c := range o.Charts {
		if !strings.Contains(c, "X") {
			t.Error("heatmap missing crossover contour marks")
		}
	}
}

func TestFig9RebuyNotes(t *testing.T) {
	o, err := Run("fig9")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(o.Notes, "\n")
	if !strings.Contains(joined, "15y, 30y") {
		t.Errorf("fig9 notes missing rebuy schedule: %v", o.Notes)
	}
}

func TestCrossoverTimes(t *testing.T) {
	mk := func(vals ...float64) []core.Point {
		pts := make([]core.Point, len(vals))
		for i, v := range vals {
			pts[i] = core.Point{Time: units.YearsOf(float64(i)), Cumulative: units.Kilograms(v)}
		}
		return pts
	}
	// a starts below b, crosses between t=1 and t=2, crosses back
	// between t=3 and t=4.
	a := mk(0, 1, 3, 5, 5)
	b := mk(1, 2, 2, 4, 6)
	xs, err := crossoverTimes(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 2 {
		t.Fatalf("crossings: %v", xs)
	}
	if math.Abs(xs[0].Years()-1.5) > 1e-9 || math.Abs(xs[1].Years()-3.5) > 1e-9 {
		t.Errorf("crossing times: %v", xs)
	}
	// Touching at a sample counts once.
	c := mk(0, 2, 4)
	d := mk(1, 2, 3)
	xs, err = crossoverTimes(c, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 1 || xs[0].Years() != 1 {
		t.Errorf("touch crossing: %v", xs)
	}
	// Identical curves: no crossings.
	xs, err = crossoverTimes(c, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 0 {
		t.Errorf("identical curves crossed: %v", xs)
	}
	// Errors.
	if _, err := crossoverTimes(a, mk(1, 2)); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := crossoverTimes(mk(1), mk(1)); err == nil {
		t.Error("single sample must error")
	}
	shifted := mk(1, 2, 3)
	shifted[1].Time = units.YearsOf(9)
	if _, err := crossoverTimes(mk(1, 2, 3), shifted); err == nil {
		t.Error("misaligned times must error")
	}
}

func TestFig10DesignShare(t *testing.T) {
	// The paper's §4.3 headline: design CFP ~15% of embodied for the
	// industry FPGAs, operation the primary contributor, EOL tiny.
	o, err := Run("fig10")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(o.Notes, "\n")
	for _, want := range []string{"design 15.0% of embodied", "operation 99% of total"} {
		if !strings.Contains(joined, want) {
			t.Errorf("fig10 notes missing %q: %v", want, o.Notes)
		}
	}
}

func TestIndustryPlatform(t *testing.T) {
	p, err := IndustryPlatform("IndustryFPGA1")
	if err != nil {
		t.Fatal(err)
	}
	if p.DutyCycle != industryDuty || p.PUE != industryPUE {
		t.Errorf("industry deployment knobs: %+v", p)
	}
	if _, err := IndustryPlatform("IndustryGPU9"); err == nil {
		t.Error("unknown device must error")
	}
}

func TestScenariosMatchesContribution5(t *testing.T) {
	o, err := Run("scenarios")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(o.Notes, "\n")
	if !strings.Contains(joined, "1.59-year") && !strings.Contains(joined, "1.6") {
		t.Errorf("scenarios notes missing lifetime headline: %v", o.Notes)
	}
}

func TestDesignAblationUnderestimate(t *testing.T) {
	o, err := Run("design-ablation")
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Tables) == 0 || len(o.Tables[0].Rows) != 6 {
		t.Fatalf("ablation table: %+v", o.Tables)
	}
	if !strings.Contains(strings.Join(o.Notes, " "), "underestimates") {
		t.Errorf("ablation notes: %v", o.Notes)
	}
}
