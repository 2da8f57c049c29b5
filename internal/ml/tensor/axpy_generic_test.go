//go:build !amd64

package tensor

// forceScalar has nothing to switch off: axpy4 is its Go loop here.
func forceScalar() (restore func()) { return func() {} }
