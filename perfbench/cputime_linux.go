package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Linux CPU-time clock ids (time.h). With CONFIG_PARAVIRT_TIME_ACCOUNTING,
// as on the reference box, these clocks leave out the time the host
// steals from the virtual CPUs.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime: " + e.Error()) // both clocks exist on every Linux the benchmark runs on
	}
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time all threads of the process have run.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTime) }

// threadCPU is the CPU time the calling thread has run.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTime) }
