//go:build !amd64 || purego

package vexp

const armed = false

func expVector(dst, src []float64) { panic("vexp: no vector kernel in this build") }
