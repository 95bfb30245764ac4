package platform

import (
	"os"
	"strconv"
	"strings"
)

// DetectHost builds a Platform for the machine the process runs on, with the
// given core count. Cache sizes come from Linux sysfs when readable; anything
// missing falls back to conservative desktop defaults. Bandwidths use
// desktop-class defaults — callers who care calibrate with cmd/pmbw and apply
// the result either by setting the fields directly or through the
// CAKE_DRAM_BW / CAKE_CLOCK_HZ environment variables (values in bytes/s and
// Hz; scientific notation like "21.3e9" works), which override the defaults.
func DetectHost(cores int) *Platform {
	pl := &Platform{
		Name:      "host",
		Cores:     cores,
		L1Bytes:   32 << 10,
		L2Bytes:   512 << 10,
		LLCBytes:  16 << 20,
		DRAMBytes: 16 << 30,
		DRAMBW:    25e9,
		ClockHz:   3e9,
		// The pure-Go kernels' rate. The f64 8×8 SIMD kernel runs faster,
		// but Plan derives α from this value, so it stays until the CB
		// blocks are re-derived for SIMD kernels (ROADMAP.md).
		FlopsPerCycle: 4,
		Internal:      BWCurve{SlopePre: 40e9, Knee: 8, SlopePost: 15e9},
		LatL1:         4, LatL2: 12, LatLLC: 40, LatDRAM: 200,
		DemandOverlap: 0.95,
		HasL3:         true,
	}
	if l1, ok := sysfsCacheBytes(0, 1); ok {
		pl.L1Bytes = l1
	}
	if l2, ok := sysfsCacheBytes(0, 2); ok {
		pl.L2Bytes = l2
	}
	if l3, ok := sysfsCacheBytes(0, 3); ok {
		pl.LLCBytes = l3
	} else {
		pl.HasL3 = false
		pl.LLCBytes = pl.L2Bytes
		pl.L2Bytes = 0
	}
	if bw, ok := EnvFloat("CAKE_DRAM_BW"); ok {
		pl.DRAMBW = bw
	}
	if hz, ok := EnvFloat("CAKE_CLOCK_HZ"); ok {
		pl.ClockHz = hz
	}
	return pl
}

// EnvFloat reads a positive float from the environment (pmbw calibration
// plumbing: CAKE_DRAM_BW, CAKE_CLOCK_HZ). Unset, empty, non-numeric or
// non-positive values are ignored so a typo degrades to the defaults.
func EnvFloat(name string) (float64, bool) {
	raw, ok := os.LookupEnv(name)
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
	if err != nil || v <= 0 {
		return 0, false
	}
	return v, true
}

// sysfsCacheBytes reads the size of the given cache level for a CPU from
// /sys/devices/system/cpu. It scans the cache indices for a matching level
// with type Data or Unified.
func sysfsCacheBytes(cpu, level int) (int64, bool) {
	base := "/sys/devices/system/cpu/cpu" + strconv.Itoa(cpu) + "/cache"
	for idx := 0; idx < 8; idx++ {
		dir := base + "/index" + strconv.Itoa(idx)
		lvl, err := os.ReadFile(dir + "/level")
		if err != nil {
			break
		}
		if strings.TrimSpace(string(lvl)) != strconv.Itoa(level) {
			continue
		}
		typ, err := os.ReadFile(dir + "/type")
		if err != nil {
			continue
		}
		t := strings.TrimSpace(string(typ))
		if t != "Data" && t != "Unified" {
			continue
		}
		raw, err := os.ReadFile(dir + "/size")
		if err != nil {
			continue
		}
		return parseCacheSize(strings.TrimSpace(string(raw)))
	}
	return 0, false
}

// parseCacheSize parses sysfs size strings like "32K", "1024K", "8M".
func parseCacheSize(s string) (int64, bool) {
	if s == "" {
		return 0, false
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'K', 'k':
		mult = 1 << 10
		s = s[:len(s)-1]
	case 'M', 'm':
		mult = 1 << 20
		s = s[:len(s)-1]
	case 'G', 'g':
		mult = 1 << 30
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v <= 0 {
		return 0, false
	}
	return v * mult, true
}
