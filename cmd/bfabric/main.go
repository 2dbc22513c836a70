// Command bfabric runs the B-Fabric web portal. It wires a complete
// system, optionally seeds a demo deployment (instrument providers,
// users, vocabularies) and serves the portal over HTTP.
//
// Usage:
//
//	bfabric [-addr :8077] [-seed] [-data-dir DIR] [-fsync always|interval|off]
//	        [-sync-every 25ms] [-snapshot-every BYTES]
//	        [-replicate-listen :8078] [-replicate-from HOST:8078]
//	        [-http-header-timeout 5s] [-http-read-timeout 30s]
//	        [-http-write-timeout 60s] [-http-idle-timeout 2m]
//	        [-request-timeout 30s] [-max-in-flight 256]
//
// Without -data-dir the system is volatile: everything lives in memory
// and dies with the process. With -data-dir every committed transaction
// is written ahead to a log in that directory before the commit is
// acknowledged, and restarting the server recovers the full committed
// state — including after a kill -9. See docs/operations.md for the
// durability policies and the data-dir layout.
//
// With -seed the server starts with the demo fixture of the paper's
// Section 2: users alice (scientist), eva (expert) and root (admin), all
// with password "demo", project p1000, a simulated Affymetrix GeneChip
// provider, and the two-group-analysis application registered. Seeding is
// skipped when the data directory already contains users, so restarting a
// seeded durable server does not duplicate the fixture.
//
// With -replicate-listen the server additionally ships its committed WAL
// frames to read replicas. With -replicate-from the server IS a read
// replica: it follows the given primary, serves reads from its own
// replicated state, and answers every write with 503 + Retry-After (the
// same envelope a degraded primary uses). Both flags together make a
// relay: a replica that re-ships to further replicas. See
// docs/replication.md.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/portal"
	"repro/internal/provider"
	"repro/internal/repl"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	seed := flag.Bool("seed", false, "seed the demo deployment")
	dataDir := flag.String("data-dir", "", "durable data directory (empty = in-memory only)")
	fsync := flag.String("fsync", "always", "WAL sync policy: always, interval or off")
	syncEvery := flag.Duration("sync-every", 25*time.Millisecond, "background fsync period for -fsync interval")
	snapshotEvery := flag.Int64("snapshot-every", 0, "WAL bytes that trigger a background snapshot+truncate (0 = 64 MiB default, negative disables)")
	headerTimeout := flag.Duration("http-header-timeout", 5*time.Second, "max time to read a request's headers")
	readTimeout := flag.Duration("http-read-timeout", 30*time.Second, "max time to read a full request, body included")
	writeTimeout := flag.Duration("http-write-timeout", 60*time.Second, "max time to write a response (covers large downloads)")
	idleTimeout := flag.Duration("http-idle-timeout", 2*time.Minute, "keep-alive idle connection timeout")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request handler deadline (0 disables)")
	maxInFlight := flag.Int("max-in-flight", 256, "max concurrently served requests before 503 (0 disables the gate)")
	replListen := flag.String("replicate-listen", "", "address to ship committed WAL frames from (primary side; empty = off)")
	replFrom := flag.String("replicate-from", "", "primary replication address to follow (makes this server a read-only replica)")
	flag.Parse()

	if *replFrom != "" && *seed {
		log.Fatalf("bfabric: -seed and -replicate-from are mutually exclusive: a replica takes all state from its primary")
	}

	opts := core.Options{}
	if *dataDir != "" {
		policy, err := store.ParseSyncPolicy(*fsync)
		if err != nil {
			log.Fatalf("bfabric: %v", err)
		}
		opts.DataDir = *dataDir
		opts.Sync = policy
		opts.SyncEvery = *syncEvery
		opts.SnapshotEvery = *snapshotEvery
		opts.OnStoreError = func(err error) { log.Printf("bfabric: durability: %v", err) }
	}

	sys, err := core.New(opts)
	if err != nil {
		log.Fatalf("bfabric: wiring system: %v", err)
	}
	if *dataDir != "" {
		if info, ok := sys.Store.WALInfo(); ok {
			log.Printf("durable store at %s (fsync=%s), recovered through commit %d",
				*dataDir, info.Policy, info.LastSeq)
		}
	}
	if *seed {
		// Providers and their storage mounts live in process memory, so
		// they are registered on every start; only the store-writing half
		// of the fixture is skipped once the data dir carries it.
		if err := registerDemoProviders(sys); err != nil {
			log.Fatalf("bfabric: registering demo providers: %v", err)
		}
		if sys.Store.Count(model.KindUser) > 0 {
			log.Printf("data dir already seeded; skipping demo data")
		} else {
			if err := seedDemoData(sys); err != nil {
				log.Fatalf("bfabric: seeding demo data: %v", err)
			}
			log.Printf("seeded demo deployment: logins alice/eva/root, password %q", "demo")
		}
	}

	// Replication wiring. A replica flips the store read-only BEFORE the
	// portal starts serving, so no local write can ever interleave with
	// the stream; schema is already registered (identically on primary and
	// replica) by the core wiring above, which is not write-gated.
	var follower *repl.Follower
	if *replFrom != "" {
		sys.Store.SetReplica(true)
		follower = repl.NewFollower(sys.Store, *replFrom, repl.FollowerOptions{Logf: log.Printf})
		follower.Start()
		log.Printf("read replica following %s", *replFrom)
	}
	var shipper *repl.Server
	if *replListen != "" {
		shipper = repl.NewServer(sys.Store)
		shipper.Logf = log.Printf
		bound, err := shipper.Start(*replListen)
		if err != nil {
			log.Fatalf("bfabric: replication listener: %v", err)
		}
		log.Printf("shipping WAL frames to replicas on %s", bound)
	}

	// Flag semantics: 0 disables. The portal config uses negative for
	// "explicitly off" (its zero value means "default"), so translate.
	cfg := portal.Config{RequestTimeout: *requestTimeout, MaxInFlight: *maxInFlight}
	if follower != nil {
		f := follower
		cfg.ReplicaStatus = func() any { return f.Report() }
		// Failover: POST /api/replication/promote (admin only) turns this
		// replica into a fenced primary. The epoch bump happens inside
		// Promote, durably, before the write gate opens; disconnecting the
		// shipper's followers (if this node relays) makes them re-handshake
		// and adopt the new epoch immediately.
		cfg.Promote = func() (any, error) {
			prom, err := f.Promote()
			if err != nil {
				return nil, err
			}
			if shipper != nil {
				shipper.Disconnect()
			}
			log.Printf("promoted to primary: epoch %d, timeline starts at seq %d", prom.Epoch, prom.LastApplied)
			return prom, nil
		}
	}
	if *requestTimeout == 0 {
		cfg.RequestTimeout = -1
	}
	if *maxInFlight == 0 {
		cfg.MaxInFlight = -1
	}
	// The server-level timeouts defend the connection (slow-loris headers,
	// dead peers, stalled downloads); the portal's per-request deadline
	// defends the handlers. Both layers are needed: the former cannot
	// cancel a handler, the latter cannot close a stuck TCP read.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           portal.NewWithConfig(sys, cfg),
		ReadHeaderTimeout: *headerTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	// On SIGINT/SIGTERM: drain in-flight HTTP requests, then close the
	// store (final WAL fsync). kill -9 is recovered on the next start.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-sigs
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("bfabric: draining connections: %v", err)
		}
	}()

	log.Printf("B-Fabric portal listening on %s", *addr)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	// ListenAndServe returns as soon as Shutdown is *called*; wait for the
	// drain to finish before closing the store underneath the handlers.
	<-drained
	if shipper != nil {
		shipper.Close()
	}
	if follower != nil {
		follower.Close()
	}
	if err := sys.Close(); err != nil {
		log.Fatalf("bfabric: shutdown: %v", err)
	}
	log.Printf("bfabric: clean shutdown")
}

// registerDemoProviders mounts the Section 2 instrument simulators. This
// state is process-local and must be rebuilt on every start.
func registerDemoProviders(sys *core.System) error {
	samples := []string{"AT-1-control", "AT-2-control", "AT-1-treated", "AT-2-treated"}
	gp, gpStore := provider.NewAffymetrixGeneChip("genechip", samples)
	sys.Storage.Mount(gpStore)
	if err := sys.Providers.Register(gp); err != nil {
		return err
	}
	ms, msStore := provider.NewMassSpec("ltqft", []string{"MS-run-1", "MS-run-2"}, 200)
	sys.Storage.Mount(msStore)
	return sys.Providers.Register(ms)
}

// seedDemoData writes the Section 2 starting state into the store.
func seedDemoData(sys *core.System) error {
	return sys.Update(func(tx *store.Tx) error {
		org, err := sys.DB.CreateOrganization(tx, "seed", model.Organization{Name: "University of Zurich", Country: "CH"})
		if err != nil {
			return err
		}
		inst, err := sys.DB.CreateInstitute(tx, "seed", model.Institute{Name: "FGCZ", Organization: org})
		if err != nil {
			return err
		}
		users := []model.User{
			{Login: "alice", FullName: "Alice Scientist", Role: model.RoleScientist, Institute: inst, Active: true},
			{Login: "eva", FullName: "Eva Expert", Role: model.RoleExpert, Institute: inst, Active: true},
			{Login: "root", FullName: "Root Admin", Role: model.RoleAdmin, Institute: inst, Active: true},
		}
		var alice int64
		for _, u := range users {
			id, err := sys.DB.CreateUser(tx, "seed", u)
			if err != nil {
				return err
			}
			if u.Login == "alice" {
				alice = id
			}
			if err := sys.Auth.SetPassword(tx, u.Login, "demo"); err != nil {
				return err
			}
		}
		if _, err := sys.DB.CreateProject(tx, "seed", model.Project{
			Name: "p1000", Description: "Arabidopsis thaliana light response",
			Members: []int64{alice}, Institute: inst, Area: "genomics",
		}); err != nil {
			return err
		}
		for vocabName, terms := range map[string][]string{
			model.VocabSpecies:          {"Arabidopsis thaliana", "Homo sapiens", "Mus musculus"},
			model.VocabTissue:           {"Leaf", "Root"},
			model.VocabTreatment:        {"Light", "Dark"},
			model.VocabExtractionMethod: {"TRIzol"},
		} {
			for _, term := range terms {
				if _, err := sys.Vocab.AddTerm(tx, "seed", vocabName, term, true); err != nil {
					return err
				}
			}
		}
		if _, err := sys.DB.CreateApplication(tx, "seed", model.Application{
			Name: "two group analysis", Description: "Differential expression between two groups",
			Connector: "rserve", Program: "twogroup.R",
			InputSpec: []string{"resources"}, ParamSpec: []string{"reference_group"},
			Active: true,
		}); err != nil {
			return err
		}
		_, err = sys.DB.CreateApplication(tx, "seed", model.Application{
			Name: "array QC", Description: "Per-array quality control",
			Connector: "rserve", Program: "qc.R",
			InputSpec: []string{"resources"}, Active: true,
		})
		return err
	})
}
