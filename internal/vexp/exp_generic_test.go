//go:build !amd64 || purego

package vexp

// kernelExpected: this build has no vector kernel to arm.
func kernelExpected() bool { return false }
