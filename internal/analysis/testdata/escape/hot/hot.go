// Package hot declares one //lint:hotpath function with a heap escape.
package hot

//lint:hotpath fixture kernel whose result escapes
func Grow(n int) []float64 {
	return make([]float64, n)
}

// Cold is not annotated, so its escape is not attributed to any site.
func Cold(n int) []float64 {
	return make([]float64, n)
}
