// Argument parsing shared by the local (in-process simulation) and remote
// (-addr) command trees: each verb's operands and flags are declared once
// here, so the two trees cannot drift apart on what a command line means.

package main

import (
	"flag"
	"fmt"

	"kvcsd/internal/compaction"
	"kvcsd/internal/core"
	"kvcsd/internal/nvme"
)

// prog is how this invocation spells the program in usage errors.
func (cfg cliConfig) prog() string {
	if cfg.addr != "" {
		return "kvcsd-cli -addr host:port"
	}
	return "kvcsd-cli"
}

// keyArg checks a verb's operand count (usage names them) and decodes the
// first operand as a key.
func keyArg(cfg cliConfig, usage string, n int, args []string) ([]byte, error) {
	if len(args) != n {
		return nil, fmt.Errorf("usage: %s %s", cfg.prog(), usage)
	}
	return parseKey(args[0])
}

func putArgs(cfg cliConfig, args []string) ([]byte, error) {
	return keyArg(cfg, "put <key> <value>", 2, args)
}

func getArgs(cfg cliConfig, args []string) ([]byte, error) {
	return keyArg(cfg, "get <key>  (0x… for hex)", 1, args)
}

// scanArgs are scan's flags, decoded.
type scanArgs struct {
	lo, hi []byte
	limit  int
}

func parseScan(args []string) (scanArgs, error) {
	fs := flag.NewFlagSet("scan", flag.ContinueOnError)
	lo := fs.String("lo", "", "low key bound, inclusive (0x… for hex)")
	hi := fs.String("hi", "", "high key bound, exclusive (0x… for hex)")
	limit := fs.Int("limit", 20, "max pairs to return (0 = all)")
	if err := fs.Parse(args); err != nil {
		return scanArgs{}, err
	}
	sa := scanArgs{limit: *limit}
	var err error
	if sa.lo, err = parseBound(*lo); err != nil {
		return scanArgs{}, err
	}
	if sa.hi, err = parseBound(*hi); err != nil {
		return scanArgs{}, err
	}
	return sa, nil
}

// parseBound decodes a scan bound; empty means open.
func parseBound(arg string) ([]byte, error) {
	if arg == "" {
		return nil, nil
	}
	return parseKey(arg)
}

// compactArgs are compact's flags: an optional compaction config to install
// first (set reports whether one was asked for), and what to do afterwards.
type compactArgs struct {
	cfg    compaction.Config
	set    bool
	status bool // remote only
	cold   bool
}

func parseCompact(cfg cliConfig, args []string) (compactArgs, error) {
	fs := flag.NewFlagSet("compact", flag.ContinueOnError)
	width := fs.Int("width", 0, "install a device compaction pipeline width first (0 = keep the device's, 1 = sequential)")
	cold := fs.Bool("migrate-cold", false, "after compaction, sweep every device's cold tier and report zones moved")
	status := new(bool)
	if cfg.addr != "" {
		status = fs.Bool("status", false, "only report compaction progress, do not start a compaction")
	}
	if err := fs.Parse(args); err != nil {
		return compactArgs{}, err
	}
	if *width < 0 {
		return compactArgs{}, fmt.Errorf("compact: -width %d is negative", *width)
	}
	return compactArgs{cfg: compaction.Config{PipelineWidth: *width}, set: *width > 0, status: *status, cold: *cold}, nil
}

// devFlag declares the -dev flag every device-addressed verb takes.
func devFlag(fs *flag.FlagSet) *int { return fs.Int("dev", 0, "target device index") }

// checkDev bounds a -dev value by the local fleet size (a remote server
// checks its own).
func checkDev(cfg cliConfig, dev int) error {
	if dev < 0 || dev >= cfg.devices {
		return fmt.Errorf("device %d out of range (0..%d)", dev, cfg.devices-1)
	}
	return nil
}

// parseDev parses the arguments of a verb whose only flag is -dev.
func parseDev(verb string, args []string) (int, error) {
	fs := flag.NewFlagSet(verb, flag.ContinueOnError)
	dev := devFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	return *dev, nil
}

// corruptArgs are corrupt's flags: the device and the extent granule to
// poison.
type corruptArgs struct {
	dev  int
	kind core.ExtentKind
	addr nvme.ExtentAddr
}

func parseCorrupt(args []string) (corruptArgs, error) {
	fs := flag.NewFlagSet("corrupt", flag.ContinueOnError)
	dev := devFlag(fs)
	kind := fs.String("kind", "sorted", "extent kind: klog, vlog, pidx, sorted, sidx")
	index := fs.String("index", "", "secondary index name (sidx extents)")
	granule := fs.Int64("granule", 0, "granule index within the extent")
	bits := fs.Int("bits", 16, "bits to flip")
	if err := fs.Parse(args); err != nil {
		return corruptArgs{}, err
	}
	kd, err := parseExtentKind(*kind)
	if err != nil {
		return corruptArgs{}, err
	}
	addr := nvme.ExtentAddr{Kind: uint8(kd), Index: *index, Granule: *granule, Bits: *bits}
	return corruptArgs{dev: *dev, kind: kd, addr: addr}, nil
}
