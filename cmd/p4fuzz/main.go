// Command p4fuzz runs only the control-plane fuzzing half of SwitchV
// against a switch (in-process or remote).
//
//	p4fuzz -role middleblock -requests 1000 -updates 50
//	p4fuzz -role middleblock -workers 4            # parallel sharded campaign
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"switchv/internal/coverage"
	"switchv/internal/fuzzer"
	"switchv/internal/p4/p4info"
	"switchv/internal/p4rt"
	"switchv/internal/switchsim"
	"switchv/internal/switchv"
	"switchv/models"
)

func main() {
	connect := flag.String("connect", "", "address of a remote switchd (empty = in-process); with -workers, a comma-separated list, one per shard")
	role := flag.String("role", "middleblock", "deployment role / model name")
	requests := flag.Int("requests", 1000, "number of write batches")
	updates := flag.Int("updates", 50, "updates per batch")
	seed := flag.Int64("seed", 1, "random seed")
	coverageGuided := flag.Bool("coverage", false, "coverage-guided generation; prints the coverage table and writes -coverage-out")
	coverageOut := flag.String("coverage-out", "coverage.json", "coverage snapshot output path (with -coverage)")
	plateau := flag.Int("plateau", 0, "stop after N consecutive batches with no new coverage (0 = never)")
	workers := flag.Int("workers", 0, "fuzz with the parallel sharded engine using N workers (0 = sequential single-stack campaign)")
	shards := flag.Int("shards", switchv.DefaultShards, "logical shard count for -workers (results depend on it; worker count only changes speed)")
	precheck := flag.String("precheck", "on", "static model preflight: on (refuse on error findings), warn (report only), off (skip)")
	flag.Parse()

	pm, err := switchv.ParsePrecheck(*precheck)
	if err != nil {
		log.Fatal(err)
	}

	prog, err := models.Load(*role)
	if err != nil {
		log.Fatal(err)
	}
	info := p4info.New(prog)

	opts := fuzzer.Options{
		Seed:              *seed,
		NumRequests:       *requests,
		UpdatesPerRequest: *updates,
		CoverageGuided:    *coverageGuided,
		PlateauBatches:    *plateau,
	}

	var incidents []switchv.Incident
	var perMutation map[string]int
	var cov *coverage.Snapshot
	if *workers > 0 {
		factory, err := stackFactory(*connect, *role, *shards)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := switchv.RunParallelCampaign(info, switchv.ParallelOptions{
			Workers:  *workers,
			Shards:   *shards,
			Fuzz:     opts,
			Factory:  factory,
			Precheck: pm,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("p4-fuzzer (parallel: %d workers, %d shards): %d batches, %d fuzzed entries in %v (%.0f entries/s)\n",
			rep.Workers, rep.Shards, rep.Batches, rep.Updates, rep.Elapsed.Round(1e6), rep.EntriesPerSecond())
		for _, s := range rep.PerShard {
			fmt.Printf("  shard %d (worker %d, seed %d): %d batches, %d updates, %d incidents in %v\n",
				s.Shard, s.Worker, s.Seed, s.Batches, s.Updates, s.Incidents, s.Elapsed.Round(1e6))
		}
		fmt.Printf("verdicts: %d must-accept, %d must-reject, %d may-reject\n",
			rep.MustAccept, rep.MustReject, rep.MayReject)
		fmt.Printf("duplicate incidents merged: %d\n", rep.DuplicateIncidents)
		incidents, perMutation, cov = rep.Incidents, rep.PerMutation, rep.Coverage
	} else {
		var dev p4rt.Device
		if *connect != "" {
			cli, err := p4rt.Dial(*connect)
			if err != nil {
				log.Fatal(err)
			}
			defer cli.Close()
			dev = cli
		} else {
			sw := switchsim.New(*role)
			defer sw.Close()
			dev = sw
		}

		h := switchv.New(info, dev, nil)
		h.Precheck = pm
		if err := h.PushPipeline(); err != nil {
			log.Fatal(err)
		}
		rep, err := h.RunControlPlane(opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("p4-fuzzer: %d batches, %d fuzzed entries in %v (%.0f entries/s)\n",
			rep.Batches, rep.Updates, rep.Elapsed.Round(1e6), rep.EntriesPerSecond())
		if rep.PlateauStopped {
			fmt.Printf("stopped early: coverage plateaued for %d batches\n", *plateau)
		}
		fmt.Printf("verdicts: %d must-accept, %d must-reject, %d may-reject\n",
			rep.MustAccept, rep.MustReject, rep.MayReject)
		incidents, perMutation, cov = rep.Incidents, rep.PerMutation, rep.Coverage
	}

	var names []string
	for name := range perMutation {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("mutations applied:\n")
	for _, name := range names {
		fmt.Printf("  %-32s %d\n", name, perMutation[name])
	}
	fmt.Printf("incidents: %d\n", len(incidents))
	for _, inc := range incidents {
		fmt.Printf("  %s\n", inc)
	}
	if *coverageGuided && cov != nil {
		fmt.Printf("\n== coverage ==\n%s", cov.Table())
		data, err := cov.JSON()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*coverageOut, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("coverage snapshot written to %s\n", *coverageOut)
	}
	if len(incidents) > 0 {
		os.Exit(1)
	}
}

// stackFactory builds per-shard switch stacks: in-process simulators, or
// one dialed client per comma-separated -connect address (shards sharing
// one switch would corrupt each other's read-back oracle).
func stackFactory(connect, role string, shards int) (switchv.StackFactory, error) {
	if connect == "" {
		return func(shard int) (p4rt.Device, func(), error) {
			sw := switchsim.New(role)
			return sw, func() { sw.Close() }, nil
		}, nil
	}
	addrs := strings.Split(connect, ",")
	if len(addrs) != shards {
		return nil, fmt.Errorf("-workers with -connect needs one address per shard: got %d addresses for %d shards", len(addrs), shards)
	}
	return func(shard int) (p4rt.Device, func(), error) {
		cli, err := p4rt.Dial(strings.TrimSpace(addrs[shard]))
		if err != nil {
			return nil, nil, err
		}
		return cli, func() { cli.Close() }, nil
	}, nil
}
