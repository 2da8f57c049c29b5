package atomicio

import (
	"os"
	"syscall"
)

// flush makes f's data durable with fdatasync: an in-place overwrite
// changes no metadata a later read needs, so there is nothing more to
// commit.
func flush(f *os.File) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		for {
			if serr = syscall.Fdatasync(int(fd)); serr != syscall.EINTR {
				return
			}
		}
	}); err != nil {
		return err
	}
	return serr
}
