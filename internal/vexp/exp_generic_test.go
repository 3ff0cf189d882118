//go:build !amd64 || purego

package vexp

// kernelExpected: this build has no vector kernel to arm.
func kernelExpected() bool { return false }

// scalar runs f: this build has only the Go loops.
func scalar(f func()) { f() }
