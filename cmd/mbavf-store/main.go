// Command mbavf-store manages a persistent run-artifact store: the
// "record once, analyze forever" companion to mbavf-exp and mbavf-serve.
// Recording simulates a workload once and commits its instrumented
// measurements (lifetime segments, solved liveness graph, cycle counts,
// machine fingerprint) as a compact CRC-checked artifact; every later
// analysis — any structure, scheme, interleaving, or fault mode — loads
// it back in milliseconds, bit-identical to a fresh simulation.
//
// The store may be a local directory (-dir) or a remote artifact server
// (-url, pointing at an mbavf-serve started with -store -store-serve),
// so one process can record into — or audit — the fleet's shared store.
//
// Usage:
//
//	mbavf-store -dir runs record minife comd   # simulate + record
//	mbavf-store -dir runs record all           # record every workload
//	mbavf-store -dir runs ls                   # list artifacts
//	mbavf-store -dir runs inspect <key>        # metadata + section layout
//	mbavf-store -dir runs verify               # per-section CRC + decode audit
//	mbavf-store -dir runs gc -max-bytes 100000000 -dry-run
//	mbavf-store -url http://storehost:8080 ls  # same, against a remote store
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mbavf"
	"mbavf/internal/store"
	"mbavf/internal/store/httpstore"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: mbavf-store {-dir <store> | -url <base-url>} <command> [args]

commands:
  record <workload>... | all   simulate workloads and record their artifacts
  ls                           list stored artifacts (damaged ones flagged)
  inspect <key>                show one artifact's metadata and sections
  verify [<key>...]            check every section CRC and payload, report damage
  gc [-max-bytes N] [-dry-run] sweep quarantine/temp files, evict oldest over N
`)
	os.Exit(2)
}

func main() {
	dir := flag.String("dir", "", "store directory (this or -url required)")
	url := flag.String("url", "", "artifact-server base URL (this or -dir required)")
	flag.Usage = usage
	flag.Parse()
	if (*dir == "") == (*url == "") || flag.NArg() < 1 {
		usage()
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	st, err := openStore(*dir, *url)
	if err == nil {
		switch cmd {
		case "record":
			err = record(ctx, st, args)
		case "ls":
			err = ls(ctx, st)
		case "inspect":
			if len(args) != 1 {
				usage()
			}
			err = inspect(ctx, st, args[0])
		case "verify":
			err = verify(ctx, st, args)
		case "gc":
			err = gc(ctx, st, args)
		default:
			usage()
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mbavf-store: %v\n", err)
		os.Exit(1)
	}
}

// openStore builds the store over whichever backend the flags selected:
// a local directory or a remote artifact server.
func openStore(dir, url string) (*store.Store, error) {
	if url != "" {
		return store.NewStore(httpstore.New(url)), nil
	}
	return store.Open(dir)
}

// record simulates each named workload (or all of them) and commits its
// artifact. Already-recorded workloads are skipped — recording is
// idempotent — and SIGINT stops between workloads, keeping everything
// committed so far.
func record(ctx context.Context, st *store.Store, names []string) error {
	rs := mbavf.NewRunStore(st.Backend())
	if len(names) == 1 && names[0] == "all" {
		names = mbavf.Workloads()
	}
	if len(names) == 0 {
		return errors.New("record: no workloads named (use 'all' for every workload)")
	}
	for _, name := range names {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if rs.Has(ctx, name) {
			if _, err := rs.LoadContext(ctx, name); err == nil {
				fmt.Printf("%s  %s (already recorded)\n", rs.Key(name), name)
				continue
			}
			// Damaged artifact: Load quarantined it; re-record below.
		}
		start := time.Now()
		r, err := mbavf.RunWorkloadContext(ctx, name)
		if err != nil {
			return fmt.Errorf("record %s: %w", name, err)
		}
		if err := rs.SaveContext(ctx, name, r); err != nil {
			return fmt.Errorf("record %s: %w", name, err)
		}
		fmt.Printf("%s  %s (simulated %d cycles in %v)\n",
			rs.Key(name), name, r.Cycles(), time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func ls(ctx context.Context, st *store.Store) error {
	infos, err := st.List(ctx)
	if err != nil {
		return err
	}
	if len(infos) == 0 {
		fmt.Println("(empty store)")
		return nil
	}
	fmt.Printf("%-32s  %-12s  %10s  %12s  %s\n", "KEY", "WORKLOAD", "BYTES", "CYCLES", "RECORDED")
	for _, in := range infos {
		if in.Err != nil {
			fmt.Printf("%-32s  DAMAGED: %v\n", in.Key, in.Err)
			continue
		}
		fmt.Printf("%-32s  %-12s  %10d  %12d  %s\n",
			in.Key, in.Meta.Workload, in.Bytes, in.Meta.Cycles, in.ModTime.Format(time.RFC3339))
	}
	return nil
}

func inspect(ctx context.Context, st *store.Store, key string) error {
	in, err := st.Inspect(ctx, key)
	if err != nil {
		return err
	}
	m := in.Meta
	fmt.Printf("key:          %s\n", in.Key)
	fmt.Printf("workload:     %s\n", m.Workload)
	fmt.Printf("config:       %s\n", m.ConfigFP)
	fmt.Printf("cycles:       %d\n", m.Cycles)
	fmt.Printf("instructions: %d\n", m.Instructions)
	fmt.Printf("l1 geometry:  %d sets x %d ways x %dB lines\n", m.L1Sets, m.L1Ways, m.LineBytes)
	fmt.Printf("l2 geometry:  %d sets x %d ways\n", m.L2Sets, m.L2Ways)
	fmt.Printf("vgpr:         %d threads x %d regs\n", m.VGPRThreads, m.VGPRRegs)
	fmt.Printf("file:         %d bytes, recorded %s\n", in.Bytes, in.ModTime.Format(time.RFC3339))
	fmt.Println("sections:")
	for _, s := range in.Sections {
		fmt.Printf("  %-6s %8d bytes  crc ok\n", s.Name, s.Bytes)
	}
	return nil
}

// verify audits the named artifacts (or every artifact): each section's
// CRC is checked and reported individually, then the surviving payloads
// are fully decoded so every invariant is exercised. Damage is reported,
// not quarantined — verify is a diagnostic.
func verify(ctx context.Context, st *store.Store, keys []string) error {
	if len(keys) == 0 {
		infos, err := st.List(ctx)
		if err != nil {
			return err
		}
		for _, in := range infos {
			keys = append(keys, in.Key)
		}
	}
	bad := 0
	for _, key := range keys {
		secs, err := st.VerifySections(ctx, key)
		damaged := err != nil
		for _, s := range secs {
			if s.Err != nil {
				damaged = true
				fmt.Printf("%s  section %-6s FAIL: %v\n", key, s.Name, s.Err)
			}
		}
		switch {
		case err != nil:
			fmt.Printf("%s  FAIL: %v\n", key, err)
		case !damaged:
			// Sections are CRC-clean; now prove the payloads decode.
			if err := st.Verify(ctx, key); err != nil {
				damaged = true
				fmt.Printf("%s  FAIL: %v\n", key, err)
			} else {
				fmt.Printf("%s  ok (%d sections)\n", key, len(secs))
			}
		}
		if damaged {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("verify: %d damaged artifact(s)", bad)
	}
	return nil
}

func gc(ctx context.Context, st *store.Store, args []string) error {
	fs := flag.NewFlagSet("gc", flag.ExitOnError)
	maxBytes := fs.Int64("max-bytes", 0, "evict oldest artifacts until the store fits (0 = only sweep quarantine and temp files)")
	dryRun := fs.Bool("dry-run", false, "report what would be removed without removing anything")
	if err := fs.Parse(args); err != nil {
		return err
	}
	removed, freed, err := st.GC(ctx, *maxBytes, *dryRun)
	if err != nil {
		return err
	}
	if *dryRun {
		fmt.Printf("gc: would remove %d file(s), freeing %d bytes\n", removed, freed)
		return nil
	}
	fmt.Printf("gc: removed %d file(s), freed %d bytes\n", removed, freed)
	return nil
}
