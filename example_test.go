package greenfpga_test

import (
	"fmt"
	"log"

	"greenfpga"
)

// Example reproduces the paper's headline: for DNN accelerators at
// one million units and two-year application lifetimes, the FPGA
// becomes the lower-carbon platform from the sixth application.
func Example() {
	domain, err := greenfpga.DomainByName("DNN")
	if err != nil {
		log.Fatal(err)
	}
	set, err := domain.Set()
	if err != nil {
		log.Fatal(err)
	}
	pair, err := greenfpga.CompileSet(set[:2]) // FPGA, ASIC
	if err != nil {
		log.Fatal(err)
	}
	n, found, err := greenfpga.CrossoverNumAppsBetween(pair[0], pair[1], greenfpga.Years(2), 1e6, 0, 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(found, n)
	// Output: true 6
}

// ExampleDomains prints the Table 2 iso-performance ratios.
func ExampleDomains() {
	for _, d := range greenfpga.Domains() {
		fmt.Printf("%s %gx area %gx power\n", d.Name, d.AreaRatio, d.PowerRatio)
	}
	// Output:
	// DNN 4x area 3x power
	// ImgProc 7.42x area 1.25x power
	// Crypto 1x area 1x power
}

// ExampleCrossoverLifetimeBetween solves the paper's experiment-B
// question: below which application lifetime do FPGAs win?
func ExampleCrossoverLifetimeBetween() {
	domain, err := greenfpga.DomainByName("DNN")
	if err != nil {
		log.Fatal(err)
	}
	set, err := domain.Set()
	if err != nil {
		log.Fatal(err)
	}
	pair, err := greenfpga.CompileSet(set[:2]) // FPGA, ASIC
	if err != nil {
		log.Fatal(err)
	}
	tstar, found, err := greenfpga.CrossoverLifetimeBetween(pair[0], pair[1], 5, 1e6, 0,
		greenfpga.Years(0.2), greenfpga.Years(2.5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%v %.2f years\n", found, tstar.Years())
	// Output: true 1.59 years
}

// ExampleDeviceByName reads a Table 3 industry testcase.
func ExampleDeviceByName() {
	spec, err := greenfpga.DeviceByName("IndustryASIC2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %s at %s, %s\n", spec.Name, spec.DieArea, spec.Node.Name, spec.PeakPower)
	// Output: IndustryASIC2: 600 mm^2 at 7nm, 192 W
}

// ExampleKernelByName sizes an application from a throughput target.
func ExampleKernelByName() {
	k, err := greenfpga.KernelByName("resnet50-int8")
	if err != nil {
		log.Fatal(err)
	}
	d, err := k.Demand(5000) // GOPS
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d PEs, %.1f Mgates\n", d.ProcessingElements, d.Gates/1e6)
	// Output: 3 PEs, 4.8 Mgates
}
