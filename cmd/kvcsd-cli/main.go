// Command kvcsd-cli drives simulated KV-CSD storage through a scripted
// key-value session and prints what the devices did: keyspace lifecycle,
// timings of each phase (virtual time), and device-side statistics.
//
// The default "session" command preserves the classic single-device flow
// (bulk insert, deferred compaction, queries). The other subcommands operate
// on a deterministic multi-device array: each invocation re-creates the same
// virtual cluster from -seed, preloads -keys pairs into a range-sharded
// keyspace, and then performs the requested operation on it.
//
// Usage:
//
//	kvcsd-cli [global flags] <command> [args]
//
//	kvcsd-cli                                  # classic session, one device
//	kvcsd-cli -keys 1000000 session            # bigger session
//	kvcsd-cli -devices 4 -replicas 2 stats     # fleet statistics + health
//	kvcsd-cli -devices 4 put mykey myvalue     # replicated routed PUT
//	kvcsd-cli -devices 4 get 0xA1B2...         # point GET (hex or raw key)
//	kvcsd-cli -devices 4 scan -limit 10        # ordered scatter-gather scan
//	kvcsd-cli -devices 4 compact               # staggered fleet compaction
//	kvcsd-cli -devices 4 compact -policy collaborative -width 4   # host/device split + pipeline
//	kvcsd-cli -cold-zones 256 compact -migrate-cold               # lifetime-aware cold placement
//	kvcsd-cli -devices 4 delete-keyspace       # drop the preloaded keyspace
//	kvcsd-cli -devices 3 -replicas 2 power-cut -dev 0    # kill one replica, degraded reads
//	kvcsd-cli -devices 3 -replicas 2 recover -dev 0      # power-cycle + recovery scrub stats
//	kvcsd-cli -devices 3 -replicas 2 inject-fault -dev 0 # seeded probabilistic media faults
//	kvcsd-cli -devices 3 -replicas 2 corrupt -dev 0      # flip bits in an extent, reads fail over
//	kvcsd-cli -devices 3 -replicas 2 scrub -dev 0        # scrub + replica read-repair report
//
// With -addr the same verbs run against a live kvcsd-server over TCP
// instead of an in-process simulation:
//
//	kvcsd-cli -addr 127.0.0.1:7411 put mykey myvalue
//	kvcsd-cli -addr 127.0.0.1:7411 compact
//	kvcsd-cli -addr 127.0.0.1:7411 get mykey
//	kvcsd-cli -addr 127.0.0.1:7411 stats
package main

import (
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"kvcsd"
	"kvcsd/internal/array"
	"kvcsd/internal/client"
	"kvcsd/internal/device"
	"kvcsd/internal/sim"
	"kvcsd/internal/stats"
)

// cliConfig carries the global flags shared by every subcommand.
type cliConfig struct {
	devices   int
	replicas  int
	keys      int
	valueSize int
	keyspaces int
	queries   int
	seed      int64
	ksName    string
	addr      string
	tenant    string
	coldZones int
}

func main() {
	cfg := cliConfig{}
	flag.StringVar(&cfg.addr, "addr", "", "kvcsd-server address (host:port); when set, commands run against the remote server instead of an in-process simulation")
	flag.IntVar(&cfg.devices, "devices", 1, "devices in the simulated array")
	flag.IntVar(&cfg.replicas, "replicas", 1, "replicas per keyspace (array commands)")
	flag.IntVar(&cfg.keys, "keys", 100000, "keys to preload (session: keys per keyspace)")
	flag.IntVar(&cfg.valueSize, "value-size", 32, "value size in bytes")
	flag.IntVar(&cfg.keyspaces, "keyspaces", 1, "session: number of keyspaces (one writer thread each)")
	flag.IntVar(&cfg.queries, "queries", 1000, "session/stats: random point queries after compaction")
	flag.Int64Var(&cfg.seed, "seed", 1, "simulation seed (same seed = same virtual cluster)")
	flag.StringVar(&cfg.ksName, "ks", "data", "keyspace name for array commands")
	flag.StringVar(&cfg.tenant, "tenant", "", "remote mode: open a session as this tenant so requests are billed to its fair share")
	flag.IntVar(&cfg.coldZones, "cold-zones", 0, "local mode: reserve this many zones per device as a cold tier (enables compact -migrate-cold)")
	flag.Parse()

	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "session"
	}
	args := flag.Args()
	if len(args) > 0 {
		args = args[1:]
	}

	if err := dispatch(cfg, cmd, args); err != nil {
		fmt.Fprintf(os.Stderr, "kvcsd-cli: %v\n", err)
		if errors.Is(err, errUnknownCommand) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

var errUnknownCommand = errors.New("unknown command")

// dispatch runs one subcommand: against the server at cfg.addr when set,
// otherwise against a fresh in-process simulation.
func dispatch(cfg cliConfig, cmd string, args []string) error {
	if cfg.addr != "" {
		return runRemote(cfg, cmd, args)
	}
	switch cmd {
	case "session":
		return runSession(cfg)
	case "put":
		return runPut(cfg, args)
	case "get":
		return runGet(cfg, args)
	case "scan":
		return runScan(cfg, args)
	case "compact":
		return runCompact(cfg, args)
	case "delete-keyspace":
		return runDeleteKeyspace(cfg)
	case "stats":
		return runStats(cfg)
	case "power-cut":
		return runPowerCut(cfg, args)
	case "recover":
		return runRecover(cfg, args)
	case "inject-fault":
		return runInjectFault(cfg, args)
	case "scrub":
		return runScrub(cfg, args)
	case "corrupt":
		return runCorrupt(cfg, args)
	}
	return fmt.Errorf("%w %q (try session, put, get, scan, compact, delete-keyspace, stats, power-cut, recover, inject-fault, scrub, corrupt)", errUnknownCommand, cmd)
}

// --- Array plumbing shared by the subcommands ------------------------------

// newArray assembles the deterministic virtual cluster from the globals.
func newArray(cfg cliConfig, env *sim.Env) *array.Array {
	opts := array.DefaultOptions()
	opts.Devices = cfg.devices
	opts.Replicas = cfg.replicas
	opts.Seed = cfg.seed
	if cfg.coldZones > 0 {
		d := device.DefaultOptions()
		d.SSD.ColdZones = cfg.coldZones
		d.Engine.ColdHeatThreshold = 1
		opts.Device = d
	}
	return array.New(env, opts)
}

// load creates the routed keyspace and bulk-preloads cfg.keys pairs into it
// (range-sharded, one partition per device). It leaves the keyspace
// uncompacted so each subcommand drives exactly the phases it demonstrates.
func load(p *sim.Proc, a *array.Array, cfg cliConfig) (*array.Keyspace, error) {
	ks, err := a.CreateRangeSharded(p, cfg.ksName, cfg.devices)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.keys; i++ {
		if err := ks.BulkPut(p, cliKey(cfg.seed, i), cliValue(cfg.seed, i, cfg.valueSize)); err != nil {
			return nil, err
		}
	}
	if err := ks.Flush(p); err != nil {
		return nil, err
	}
	return ks, nil
}

// cliKey derives the i-th preloaded key (8-byte hashed prefix spreads keys
// across all range shards; print with %x).
func cliKey(seed int64, i int) []byte {
	return kvcsd.Uint64Key(mix(uint64(seed)<<32 ^ uint64(i)))
}

func cliValue(seed int64, i, size int) []byte {
	v := make([]byte, size)
	x := mix(uint64(seed)<<33 ^ uint64(i) ^ 0xABCD)
	for j := range v {
		v[j] = byte(x >> (8 * uint(j%8)))
		if j%8 == 7 {
			x = mix(x)
		}
	}
	return v
}

func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// parseKey interprets a CLI key argument: 0x-prefixed arguments decode as
// hex (how scan and the preload print keys), everything else is raw bytes.
func parseKey(arg string) ([]byte, error) {
	if strings.HasPrefix(arg, "0x") || strings.HasPrefix(arg, "0X") {
		b, err := hex.DecodeString(arg[2:])
		if err != nil {
			return nil, fmt.Errorf("bad hex key %q: %w", arg, err)
		}
		return b, nil
	}
	return []byte(arg), nil
}

// runArray executes fn as the master proc over a fresh cluster and prints
// fleet statistics afterwards when wanted.
func runArray(cfg cliConfig, fn func(p *sim.Proc, a *array.Array) error) error {
	env := sim.NewEnv()
	a := newArray(cfg, env)
	var err error
	env.Go("cli", func(p *sim.Proc) {
		err = fn(p, a)
		a.Shutdown()
	})
	env.Run()
	return err
}

// --- Subcommands -----------------------------------------------------------

func runPut(cfg cliConfig, args []string) error {
	key, err := putArgs(cfg, args)
	if err != nil {
		return err
	}
	return runArray(cfg, func(p *sim.Proc, a *array.Array) error {
		ks, err := load(p, a, cfg)
		if err != nil {
			return err
		}
		if err := ks.Put(p, key, []byte(args[1])); err != nil {
			return err
		}
		fmt.Printf("put %q (%d bytes) into %s: replicated to devices %v\n",
			args[0], len(args[1]), cfg.ksName, ks.OwnersOf(key))
		return nil
	})
}

func runGet(cfg cliConfig, args []string) error {
	key, err := getArgs(cfg, args)
	if err != nil {
		return err
	}
	return runArray(cfg, func(p *sim.Proc, a *array.Array) error {
		ks, err := load(p, a, cfg)
		if err != nil {
			return err
		}
		if err := ks.Compact(p); err != nil {
			return err
		}
		t0 := p.Now()
		val, ok, err := ks.Get(p, key)
		if err != nil {
			return err
		}
		if !ok {
			fmt.Printf("get %s: not found (%v)\n", args[0], p.Now()-t0)
			return nil
		}
		fmt.Printf("get %s: %d bytes in %v\n  value: 0x%x\n", args[0], len(val), p.Now()-t0, val)
		return nil
	})
}

func runScan(cfg cliConfig, args []string) error {
	sa, err := parseScan(args)
	if err != nil {
		return err
	}
	return runArray(cfg, func(p *sim.Proc, a *array.Array) error {
		ks, err := load(p, a, cfg)
		if err != nil {
			return err
		}
		if err := ks.Compact(p); err != nil {
			return err
		}
		t0 := p.Now()
		pairs, err := ks.Scan(p, sa.lo, sa.hi, sa.limit)
		if err != nil {
			return err
		}
		fmt.Printf("scan %s: %d pairs across %d shards in %v\n",
			cfg.ksName, len(pairs), ks.Partitions(), p.Now()-t0)
		for _, kv := range pairs {
			fmt.Printf("  0x%x  (%d bytes)\n", kv.Key, len(kv.Value))
		}
		return nil
	})
}

func runCompact(cfg cliConfig, args []string) error {
	ca, err := parseCompact(cfg, args)
	if err != nil {
		return err
	}
	return runArray(cfg, func(p *sim.Proc, a *array.Array) error {
		if ca.set {
			ccfg := ca.cfg
			for _, m := range a.Members() {
				if ccfg, err = m.Client.SetCompactionConfig(p, ccfg); err != nil {
					return err
				}
			}
			fmt.Printf("installed compaction config: policy=%s width=%d\n", ccfg.Policy, ccfg.PipelineWidth)
		}
		ks, err := load(p, a, cfg)
		if err != nil {
			return err
		}
		t0 := p.Now()
		if err := ks.Compact(p); err != nil {
			return err
		}
		fmt.Printf("fleet compaction of %s (%d shards, cap %d, stagger %v): %v\n",
			cfg.ksName, ks.Partitions(), a.Options().MaxConcurrentCompactions,
			array.CompactionStagger, p.Now()-t0)
		info, err := ks.Info(p)
		if err != nil {
			return err
		}
		fmt.Printf("state=%s pairs=%d zones=%d\n", info.State, info.Pairs, info.ZoneCount)
		for _, row := range ks.ShardMap() {
			fmt.Printf("  shard %s\n", row)
		}
		printCompactions(a.Compactions())
		if ca.cold {
			var total int64
			for _, m := range a.Members() {
				moved, err := m.Client.MigrateCold(p)
				if err != nil {
					return err
				}
				total += moved
			}
			fmt.Printf("extra cold-tier sweep: %d zones migrated (the fleet window already sweeps after each device's compactions)\n", total)
		}
		return nil
	})
}

func runDeleteKeyspace(cfg cliConfig) error {
	return runArray(cfg, func(p *sim.Proc, a *array.Array) error {
		if _, err := load(p, a, cfg); err != nil {
			return err
		}
		if err := a.DeleteKeyspace(p, cfg.ksName); err != nil {
			return err
		}
		fmt.Printf("deleted keyspace %s from all shards; remaining keyspaces: %v\n",
			cfg.ksName, a.Keyspaces())
		return nil
	})
}

func runStats(cfg cliConfig) error {
	return runArray(cfg, func(p *sim.Proc, a *array.Array) error {
		ks, err := load(p, a, cfg)
		if err != nil {
			return err
		}
		if err := ks.Compact(p); err != nil {
			return err
		}
		if _, _, err := probe(p, ks, cfg); err != nil {
			return err
		}
		fmt.Printf("array: %d devices, %d replicas, %d keys preloaded, %d queries\n",
			cfg.devices, a.Options().Replicas, cfg.keys, cfg.queries)
		fmt.Printf("fleet totals:\n")
		printIOStats("  ", a.Stats())
		for _, m := range a.Members() {
			fmt.Printf("device %d:\n", m.ID)
			printIOStats("  ", m.Stats)
		}
		fmt.Printf("health:\n")
		for _, h := range a.Health() {
			fmt.Printf("  device %d: %s (consecutive failures: %d)\n", h.ID, upDown(h.Down), h.Failures)
		}
		printCompactions(a.Compactions())
		fmt.Printf("virtual time: %v\n", p.Now())
		return nil
	})
}

func printIOStats(indent string, st *stats.IOStats) {
	fmt.Printf("%smedia write: %s   media read: %s\n", indent,
		stats.HumanBytes(st.MediaWrite.Value()), stats.HumanBytes(st.MediaRead.Value()))
	fmt.Printf("%shost->device: %s  device->host: %s\n", indent,
		stats.HumanBytes(st.HostToDevice.Value()), stats.HumanBytes(st.DeviceToHost.Value()))
	fmt.Printf("%scommands: %d  write amplification: %.2f\n", indent,
		st.Commands.Value(), st.WriteAmplification())
}

// probe issues cfg.queries seeded point gets over the preloaded keys and
// reports how many hit, how many failed, and the first failure.
func probe(p *sim.Proc, ks client.Contract, cfg cliConfig) (found, failed int, first error) {
	for q := 0; q < cfg.queries; q++ {
		i := int(mix(uint64(q)^0x51A75) % uint64(max(cfg.keys, 1)))
		if _, ok, err := ks.Get(p, cliKey(cfg.seed, i)); err != nil {
			if failed++; first == nil {
				first = err
			}
		} else if ok {
			found++
		}
	}
	return found, failed, first
}

func upDown(down bool) string {
	if down {
		return "DOWN"
	}
	return "up"
}

// --- The classic single-device session -------------------------------------

func runSession(cfg cliConfig) error {
	sys := kvcsd.New(nil)
	err := sys.Run(func(p *kvcsd.Proc) error {
		// Insert phase: one writer process per keyspace.
		t0 := p.Now()
		errs := make([]error, cfg.keyspaces)
		handles := make([]*kvcsd.Keyspace, cfg.keyspaces)
		var writers []*kvcsd.Proc
		for w := 0; w < cfg.keyspaces; w++ {
			w := w
			writers = append(writers, sys.Go(fmt.Sprintf("writer-%d", w), func(wp *kvcsd.Proc) {
				ks, err := sys.Client.CreateKeyspace(wp, fmt.Sprintf("ks-%d", w))
				if err != nil {
					errs[w] = err
					return
				}
				handles[w] = ks
				val := make([]byte, cfg.valueSize)
				for i := 0; i < cfg.keys; i++ {
					key := kvcsd.Uint64Key(uint64(w)<<48 | uint64(i*2654435761))
					if err := ks.BulkPut(wp, key, val); err != nil {
						errs[w] = err
						return
					}
				}
				errs[w] = ks.Compact(wp) // deferred: returns immediately
			}))
		}
		p.Join(writers...)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		writeTime := p.Now() - t0
		fmt.Printf("insert+compact-invoke: %v  (%d keys x %d keyspaces, %dB values)\n",
			writeTime, cfg.keys, cfg.keyspaces, cfg.valueSize)

		// Wait out the asynchronous device compaction.
		t1 := p.Now()
		for _, ks := range handles {
			if err := ks.WaitCompacted(p); err != nil {
				return err
			}
		}
		fmt.Printf("device compaction window: %v (hidden from the application)\n", p.Now()-t1)

		for _, ks := range handles {
			info, err := ks.Info(p)
			if err != nil {
				return err
			}
			fmt.Printf("keyspace %-6s state=%-10s pairs=%-10d zones=%-4d compaction=%v\n",
				info.Name, info.State, info.Pairs, info.ZoneCount, info.CompactDur)
		}

		// Query phase.
		t2 := p.Now()
		found := 0
		for w, ks := range handles {
			for q := 0; q < cfg.queries; q++ {
				key := kvcsd.Uint64Key(uint64(w)<<48 | uint64((q*7919%cfg.keys)*2654435761))
				_, ok, err := ks.Get(p, key)
				if err != nil {
					return err
				}
				if ok {
					found++
				}
			}
		}
		total := cfg.queries * cfg.keyspaces
		fmt.Printf("queries: %d/%d found in %v (%.1fus avg)\n",
			found, total, p.Now()-t2, float64(p.Now()-t2)/float64(total)/1e3)
		return nil
	})
	if err != nil {
		return err
	}

	fmt.Printf("\ndevice statistics:\n")
	printIOStats("  ", sys.Stats)
	fmt.Printf("  total virtual time: %v\n", sys.Elapsed())
	return nil
}
