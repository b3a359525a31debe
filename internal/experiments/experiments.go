// Package experiments regenerates every table and figure of the
// GreenFPGA paper's evaluation (§4), plus the ablations DESIGN.md calls
// out. Each experiment is a named Runner producing tables, rendered
// ASCII charts, and observations (crossover points, dominance notes)
// that can be compared against the paper; DESIGN.md's "Experiment
// index" maps each artifact to the paper.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"greenfpga/internal/core"
	"greenfpga/internal/isoperf"
	"greenfpga/internal/report"
	"greenfpga/internal/sweep"
	"greenfpga/internal/units"
)

// Output is one experiment's renderable result.
type Output struct {
	// ID is the registry key ("fig4", "table2", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Tables hold tabular results.
	Tables []*report.Table
	// Charts hold pre-rendered ASCII figures.
	Charts []string
	// Notes hold headline observations (crossovers, dominance).
	Notes []string
}

// Render writes the experiment to a writer.
func (o *Output) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n\n", o.ID, o.Title); err != nil {
		return err
	}
	for _, t := range o.Tables {
		if err := t.WriteText(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, c := range o.Charts {
		if _, err := fmt.Fprintln(w, c); err != nil {
			return err
		}
	}
	for _, n := range o.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderMarkdown writes the experiment as Markdown: tables as GFM
// tables, charts fenced as code blocks, notes as a bullet list.
func (o *Output) RenderMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "## %s: %s\n\n", o.ID, o.Title); err != nil {
		return err
	}
	for _, t := range o.Tables {
		if err := t.WriteMarkdown(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, c := range o.Charts {
		if _, err := fmt.Fprintf(w, "```\n%s```\n\n", c); err != nil {
			return err
		}
	}
	for _, n := range o.Notes {
		if _, err := fmt.Fprintf(w, "- %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderCSV writes the experiment's tables as CSV, separated by blank
// lines (charts and notes are omitted).
func (o *Output) RenderCSV(w io.Writer) error {
	for i, t := range o.Tables {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if err := t.WriteCSV(w); err != nil {
			return err
		}
	}
	return nil
}

// Runner produces one experiment.
type Runner func() (*Output, error)

// registry maps experiment IDs to runners, populated by init functions
// in the per-figure files.
var registry = map[string]Runner{}

// register adds a runner; duplicate IDs are a programming error.
func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
}

// List returns the experiment IDs in run order: tables first, then
// figures, then extras, each numerically ordered.
func List() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return orderKey(ids[i]) < orderKey(ids[j]) })
	return ids
}

// orderKey sorts "table1" < "table2" < "fig2" < ... < "fig10" < extras.
func orderKey(id string) string {
	class, num := 2, 0
	switch {
	case strings.HasPrefix(id, "table"):
		class = 0
		fmt.Sscanf(id, "table%d", &num)
	case strings.HasPrefix(id, "fig"):
		class = 1
		fmt.Sscanf(id, "fig%d", &num)
	}
	return fmt.Sprintf("%d-%03d-%s", class, num, id)
}

// Run executes one experiment by ID.
func Run(id string) (*Output, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, List())
	}
	out, err := r()
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	return out, nil
}

// RunAll executes every experiment in List order.
func RunAll() ([]*Output, error) {
	var outs []*Output
	for _, id := range List() {
		o, err := Run(id)
		if err != nil {
			return nil, err
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// domainSet resolves an iso-performance platform set (FPGA, ASIC,
// then GPU and CPU) by domain name. Set results are memoized inside
// isoperf, so repeated resolution across artifacts does not rebuild
// the platforms; each call returns the caller's own copy to modify.
func domainSet(name string) (core.Set, error) {
	d, err := isoperf.ByName(name)
	if err != nil {
		return nil, err
	}
	return d.Set()
}

// uniformEval builds a sweep evaluator over n/lifetime/volume with two
// of the three pinned, filling one total per member of cs through the
// compiled O(1) uniform path.
func uniformEval(cs core.CompiledSet, axis string, n int, lifetimeYears, volume float64) sweep.SetEval {
	return func(x float64, totals []units.Mass) error {
		nApps, t, v := n, lifetimeYears, volume
		switch axis {
		case "n":
			nApps = int(x + 0.5)
		case "t":
			t = x
		case "v":
			v = x
		default:
			return fmt.Errorf("experiments: unknown axis %q", axis)
		}
		for i, c := range cs {
			total, err := c.UniformTotal(nApps, units.YearsOf(t), v, 0)
			if err != nil {
				return err
			}
			totals[i] = total
		}
		return nil
	}
}

// kt formats a mass in kilotonnes for table cells.
func kt(m units.Mass) string { return fmt.Sprintf("%.2f", m.Kilotonnes()) }
