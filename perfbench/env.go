package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// envRecord is the environment every result carries, so results from
// different machines or core counts are never compared.
type envRecord struct {
	Nproc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	CPU         string `json:"cpu"`
	DataDirFS   string `json:"data_dir_fs,omitempty"`
	FsyncPolicy string `json:"fsync_policy"`
}

func environment(dataDir string, durable bool) envRecord {
	e := envRecord{
		Nproc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		CPU:         cpuModel(),
		FsyncPolicy: "none: state in memory",
	}
	if durable {
		e.DataDirFS = fsType(dataDir)
		e.FsyncPolicy = "fsync on (WALNoSync=false) at every submit, commit and rotate record; CompactAt=server.DefaultCompactAt (4 MiB)"
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsType finds the filesystem holding dir: the mount with the longest
// mount point that prefixes it.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, fields[2]
		}
	}
	return typ
}
