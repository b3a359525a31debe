package core

import "fmt"

// Bisect locates a zero of f on [lo, hi] to within tol (absolute, on
// x). It requires a sign change between the endpoints and reports
// found=false without error when there is none. f is assumed
// continuous.
func Bisect(lo, hi, tol float64, f func(float64) (float64, error)) (x float64, found bool, err error) {
	if !(lo < hi) {
		return 0, false, fmt.Errorf("core: bisect needs lo < hi, got [%g, %g]", lo, hi)
	}
	if tol <= 0 {
		return 0, false, fmt.Errorf("core: bisect needs a positive tolerance, got %g", tol)
	}
	flo, err := f(lo)
	if err != nil {
		return 0, false, err
	}
	fhi, err := f(hi)
	if err != nil {
		return 0, false, err
	}
	if flo == 0 {
		return lo, true, nil
	}
	if fhi == 0 {
		return hi, true, nil
	}
	if (flo > 0) == (fhi > 0) {
		return 0, false, nil
	}
	for hi-lo > tol {
		mid := (lo + hi) / 2
		fm, err := f(mid)
		if err != nil {
			return 0, false, err
		}
		if fm == 0 {
			return mid, true, nil
		}
		if (fm > 0) == (flo > 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, true, nil
}
