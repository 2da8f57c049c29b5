//go:build !amd64

package tensor

// forceScalar has nothing to switch off: every kernel is its Go loop here.
func forceScalar() (restore func()) { return func() {} }
