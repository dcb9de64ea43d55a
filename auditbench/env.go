package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// envStamp describes where a result was measured. Results are comparable
// only when their hardware fields agree (see hardwareFields).
type envStamp struct {
	Nproc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPUModel   string         `json:"cpu_model"`
	GoVersion  string         `json:"go_version"`
	Kernel     string         `json:"kernel"`
	DataFS     string         `json:"data_fs"`
	Fsync      string         `json:"fsync"`
	Knobs      map[string]any `json:"server_knobs"`
	Commit     string         `json:"commit"`
}

// hardwareFields are the fields two results must share to be compared.
func (e envStamp) hardwareFields() map[string]any {
	return map[string]any{"nproc": e.Nproc, "gomaxprocs": e.GOMAXPROCS, "cpu_model": e.CPUModel}
}

func stampEnv(dataDir string, knobs map[string]any) envStamp {
	commit := os.Getenv("AUDITBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return envStamp{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Kernel:     readTrim("/proc/sys/kernel/osrelease"),
		DataFS:     fsType(dataDir),
		Fsync:      fsyncOf(knobs),
		Knobs:      knobs,
		Commit:     commit,
	}
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x2FC12FC1:
		return "zfs"
	case 0x65735546:
		return "fuse"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}

// fsyncOf names the WAL sync policy in effect, or "none" without a disk.
func fsyncOf(knobs map[string]any) string {
	if p, ok := knobs["fsync"].(string); ok {
		return p
	}
	return "none"
}
