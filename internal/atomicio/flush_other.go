//go:build !linux

package atomicio

import "os"

// flush makes f's data durable with Sync, where the platform offers
// Go no fdatasync.
func flush(f *os.File) error { return f.Sync() }
