package sim

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerfd is the precise alarm on Linux: a CLOCK_MONOTONIC timerfd, wrapped
// in an os.File so that waiting for it parks the waker in the netpoller.
// The runtime's own timers wake an idle process from epoll_wait, whose
// timeout is whole milliseconds, so a 400µs timer waits about 1ms; the fd's
// readiness ends that epoll_wait when the kernel's timer expires.
type timerfd struct {
	fd   uintptr
	raw  syscall.RawConn
	spec struct{ interval, value syscall.Timespec }
}

// preciseAlarm opens a timerfd, or returns nil where the kernel refuses one
// (a seccomp filter, say) or the runtime cannot poll it.
func preciseAlarm() alarm {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil
	}
	f := os.NewFile(fd, "sim-alarm")
	// A file the netpoller does not hold has no deadlines, and nothing to
	// park on.
	if f.SetReadDeadline(time.Time{}) != nil {
		f.Close()
		return nil
	}
	raw, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil
	}
	return &timerfd{fd: fd, raw: raw}
}

// arm sets a one-shot expiry d from now. Callers hold the deadlines' lock,
// which also guards spec.
func (a *timerfd) arm(d time.Duration) {
	if d <= 0 {
		d = 1 // a zero it_value disarms
	}
	a.spec.value = syscall.NsecToTimespec(int64(d))
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, 0,
		uintptr(unsafe.Pointer(&a.spec)), 0, 0, 0)
	if errno != 0 {
		panic("sim: timerfd_settime: " + errno.Error())
	}
}

// run parks in the netpoller until the fd is readable and calls fire each
// time it is, without reading the fd: the netpoller watches it edge-
// triggered, and every expiry is a new edge whether or not the expiry count
// was read, so a fire costs no read. One Read call spans the waker's life:
// it arms readiness once, so an expiry that lands while fire runs is kept
// for the next park, not cleared.
func (a *timerfd) run(fire func()) {
	err := a.raw.Read(func(uintptr) bool {
		fire()
		return false
	})
	panic("sim: the alarm timerfd stopped: " + err.Error())
}
