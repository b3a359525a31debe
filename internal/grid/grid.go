// Package grid models the carbon intensity of electrical energy sources
// and regional grid mixes. The design-house intensity C_src,des and the
// use-phase intensity C_src,use of the GreenFPGA model (Table 1 of the
// paper: 30-700 gCO2/kWh) are produced here, as is the fab-location
// intensity consumed by the manufacturing model.
package grid

import (
	"fmt"
	"sort"
	"strings"

	"greenfpga/internal/units"
)

// Source identifies a primary energy source.
type Source string

// Primary energy sources with life-cycle carbon intensities. The values
// follow the IPCC/ACT figures used by architectural carbon models:
// they bracket the paper's 30-700 gCO2/kWh range.
const (
	Coal       Source = "coal"
	Gas        Source = "gas"
	Oil        Source = "oil"
	Biomass    Source = "biomass"
	Solar      Source = "solar"
	Wind       Source = "wind"
	Hydro      Source = "hydro"
	Nuclear    Source = "nuclear"
	Geothermal Source = "geothermal"
)

// sourceIntensity holds the per-source life-cycle carbon intensities in
// gCO2e/kWh.
var sourceIntensity = map[Source]units.CarbonIntensity{
	Coal:       units.GramsPerKWh(820),
	Gas:        units.GramsPerKWh(490),
	Oil:        units.GramsPerKWh(650),
	Biomass:    units.GramsPerKWh(230),
	Solar:      units.GramsPerKWh(41),
	Wind:       units.GramsPerKWh(11),
	Hydro:      units.GramsPerKWh(24),
	Nuclear:    units.GramsPerKWh(12),
	Geothermal: units.GramsPerKWh(38),
}

// Intensity reports the life-cycle carbon intensity of a single source.
func Intensity(s Source) (units.CarbonIntensity, error) {
	ci, ok := sourceIntensity[s]
	if !ok {
		return 0, fmt.Errorf("grid: unknown energy source %q", s)
	}
	return ci, nil
}

// sortedSources holds the known sources in deterministic order, the
// order every mix summation follows.
var sortedSources = func() []Source {
	out := make([]Source, 0, len(sourceIntensity))
	for s := range sourceIntensity {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}()

// Sources lists the known sources in deterministic order.
func Sources() []Source { return append([]Source(nil), sortedSources...) }

// Renewable reports whether the source counts toward the renewable
// fraction knob of the design and manufacturing models.
func Renewable(s Source) bool {
	switch s {
	case Solar, Wind, Hydro, Nuclear, Geothermal:
		return true
	}
	return false
}

// Mix is a blend of energy sources with fractional shares. Shares should
// sum to 1; Normalize enforces it.
type Mix map[Source]float64

// total validates the mix and sums its shares in deterministic source
// order, so normalization (and every model built on it) is
// bit-reproducible across calls. It errors if the mix is empty, has
// negative shares, references unknown sources or sums to zero.
func (m Mix) total() (float64, error) {
	if len(m) == 0 {
		return 0, fmt.Errorf("grid: empty mix")
	}
	for s, f := range m {
		if _, ok := sourceIntensity[s]; !ok {
			return 0, fmt.Errorf("grid: unknown energy source %q in mix", s)
		}
		if f < 0 {
			return 0, fmt.Errorf("grid: negative share %g for %q", f, s)
		}
	}
	total := 0.0
	for _, s := range sortedSources {
		total += m[s]
	}
	if total <= 0 {
		return 0, fmt.Errorf("grid: mix shares sum to zero")
	}
	return total, nil
}

// Normalize scales the shares so they sum to one. It returns an error if
// the mix is empty, has negative shares, or references unknown sources.
func (m Mix) Normalize() (Mix, error) {
	total, err := m.total()
	if err != nil {
		return nil, err
	}
	out := make(Mix, len(m))
	for s, f := range m {
		out[s] = f / total
	}
	return out, nil
}

// Intensity reports the share-weighted carbon intensity of the mix:
// each normalized share f/total times its source's intensity, summed
// in deterministic source order so repeated calls are bit-identical —
// and identical to summing the Normalize result, without building it.
func (m Mix) Intensity() (units.CarbonIntensity, error) {
	total, err := m.total()
	if err != nil {
		return 0, err
	}
	var ci float64
	for _, s := range sortedSources {
		if f, ok := m[s]; ok {
			ci += f / total * sourceIntensity[s].KgPerKWh()
		}
	}
	return units.KgPerKWh(ci), nil
}

// RenewableFraction reports the share of the mix supplied by renewable
// (including nuclear) sources.
func (m Mix) RenewableFraction() (float64, error) {
	norm, err := m.Normalize()
	if err != nil {
		return 0, err
	}
	var f float64
	for _, s := range sortedSources {
		if Renewable(s) {
			f += norm[s]
		}
	}
	return f, nil
}

// WithRenewables returns a copy of the mix whose renewable share is
// raised to at least target (0..1) by displacing fossil sources
// proportionally with the mix's existing renewable blend (or wind+solar
// when the mix has none). This models power-purchase agreements reported
// in the industry sustainability reports the paper cites.
func (m Mix) WithRenewables(target float64) (Mix, error) {
	if target < 0 || target > 1 {
		return nil, fmt.Errorf("grid: renewable target %g outside [0,1]", target)
	}
	norm, err := m.Normalize()
	if err != nil {
		return nil, err
	}
	cur, _ := norm.RenewableFraction()
	if cur >= target {
		return norm, nil
	}
	// Split the mix into renewable and fossil components.
	ren := make(Mix)
	for s, f := range norm {
		if Renewable(s) {
			ren[s] = f
		}
	}
	if len(ren) == 0 {
		ren = Mix{Wind: 0.5, Solar: 0.5}
	}
	renNorm, _ := ren.Normalize()
	out := make(Mix, len(norm)+2)
	scale := (1 - target) / (1 - cur)
	for s, f := range norm {
		if !Renewable(s) {
			out[s] = f * scale
		}
	}
	for s, f := range renNorm {
		out[s] += f * target
	}
	return out.Normalize()
}

// String renders the mix in deterministic order, e.g.
// "coal:45% gas:30% nuclear:25%".
func (m Mix) String() string {
	keys := make([]string, 0, len(m))
	for s := range m {
		keys = append(keys, string(s))
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s:%.0f%%", k, m[Source(k)]*100))
	}
	return strings.Join(parts, " ")
}

// Region identifies a preset grid mix.
type Region string

// Preset regions. The mixes are coarse 2022-vintage national blends of
// the countries hosting fabs and design houses in the paper's sources.
const (
	RegionTaiwan    Region = "taiwan"
	RegionUSA       Region = "usa"
	RegionEurope    Region = "europe"
	RegionKorea     Region = "korea"
	RegionJapan     Region = "japan"
	RegionIceland   Region = "iceland"
	RegionWorld     Region = "world"
	RegionRenewable Region = "renewable"
)

var regionMixes = map[Region]Mix{
	RegionTaiwan:    {Coal: 0.44, Gas: 0.38, Nuclear: 0.09, Hydro: 0.03, Solar: 0.03, Wind: 0.03},
	RegionUSA:       {Coal: 0.20, Gas: 0.40, Nuclear: 0.19, Hydro: 0.06, Wind: 0.10, Solar: 0.05},
	RegionEurope:    {Coal: 0.16, Gas: 0.20, Nuclear: 0.22, Hydro: 0.17, Wind: 0.17, Solar: 0.08},
	RegionKorea:     {Coal: 0.34, Gas: 0.29, Nuclear: 0.29, Hydro: 0.01, Solar: 0.05, Wind: 0.02},
	RegionJapan:     {Coal: 0.31, Gas: 0.34, Nuclear: 0.08, Hydro: 0.08, Solar: 0.10, Oil: 0.09},
	RegionIceland:   {Hydro: 0.70, Geothermal: 0.30},
	RegionWorld:     {Coal: 0.36, Gas: 0.23, Nuclear: 0.09, Hydro: 0.15, Wind: 0.07, Solar: 0.05, Oil: 0.03, Biomass: 0.02},
	RegionRenewable: {Wind: 0.4, Solar: 0.3, Hydro: 0.3},
}

// ByRegion returns the preset mix for a region.
func ByRegion(r Region) (Mix, error) {
	m, ok := regionMixes[r]
	if !ok {
		return nil, fmt.Errorf("grid: unknown region %q", r)
	}
	return m.Normalize()
}

// presetIntensities memoizes every preset region's intensity, computed
// exactly as ByRegion(r) then Intensity().
var presetIntensities = func() map[Region]units.CarbonIntensity {
	out := make(map[Region]units.CarbonIntensity, len(regionMixes))
	for r := range regionMixes {
		m, _ := ByRegion(r) // the preset mixes are valid
		out[r], _ = m.Intensity()
	}
	return out
}()

// PresetIntensity reports a preset region's carbon intensity,
// bit-identical to ByRegion(r) then Intensity() but computed once.
func PresetIntensity(r Region) (units.CarbonIntensity, error) {
	ci, ok := presetIntensities[r]
	if !ok {
		return 0, fmt.Errorf("grid: unknown region %q", r)
	}
	return ci, nil
}

// SiteIntensity resolves a model's grid intensity: mix m, or the
// preset mix of region def when m is nil, with its renewable share
// raised to renewableTarget when that is positive. The unmodified
// preset reads the memoized PresetIntensity.
func SiteIntensity(m Mix, def Region, renewableTarget float64) (units.CarbonIntensity, error) {
	var err error
	if m == nil {
		if renewableTarget <= 0 {
			return PresetIntensity(def)
		}
		if m, err = ByRegion(def); err != nil {
			return 0, err
		}
	}
	if renewableTarget > 0 {
		if m, err = m.WithRenewables(renewableTarget); err != nil {
			return 0, err
		}
	}
	return m.Intensity()
}

// Regions lists the preset regions in deterministic order.
func Regions() []Region {
	out := make([]Region, 0, len(regionMixes))
	for r := range regionMixes {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
