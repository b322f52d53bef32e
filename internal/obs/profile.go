package obs

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts a CPU profile into cpuPath when it is set. The
// returned stop ends it and, when memPath is set, writes a heap profile
// there after a GC. The command-line tools call it around a whole run.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
