// Package loadgen is B-Fabric's ISUCON-style HTTP load harness: it boots
// the portal over a real TCP listener, logs a pool of generated users in
// over HTTP, and drives a weighted mixed workload — browse, search,
// object reads, stats and task listings racing concurrent sample/extract/
// annotation writers — validating every response (status, JSON shape,
// pagination consistency, conditional-request semantics) while recording
// throughput and latency percentiles per operation class.
//
// Every number the harness reports is measured at the socket: requests
// travel through the kernel's TCP stack, net/http's connection handling,
// the portal's hardening stack and the JSON wire encoding, exactly as a
// production client's would. The in-process benchmarks stop at the Go
// API; this package scores the system the way a portal's users do.
package loadgen

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/genload"
	"repro/internal/model"
	"repro/internal/portal"
	"repro/internal/repl"
	"repro/internal/store"
)

// Config tunes one harness run. The zero value is completed by
// (*Config).withDefaults: a 10-second run at genload scale 0.1 with 16
// reader clients and 4 writers.
type Config struct {
	// Scale is the genload population factor relative to the paper's FGCZ
	// January-2010 deployment (1.0 = full scale).
	Scale float64
	// Clients is the number of concurrent reader clients.
	Clients int
	// Writers is the number of concurrent writer clients (sample/extract
	// registrations and annotation creations racing the readers).
	// Negative means none: a read-only run, where conditional requests
	// hit their validators and the 304 path carries the load.
	Writers int
	// Replicas, when positive, boots that many WAL-shipping read replicas
	// next to the primary (each with its own store, portal and TCP
	// socket). Readers are spread round-robin across the replica portals;
	// writers keep targeting the primary. Clients defaults to 16 per
	// serving instance so aggregate read throughput measures capacity, not
	// a fixed offered load split ever thinner.
	Replicas int
	// Duration is the measured wall time of the run.
	Duration time.Duration
	// Seed makes population generation and workload choice deterministic.
	Seed int64
	// Timeout bounds each HTTP request on the client side.
	Timeout time.Duration
	// Portal carries the serving limits of the booted portal.
	Portal portal.Config
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

func (cfg Config) withDefaults() Config {
	if cfg.Scale == 0 {
		cfg.Scale = 0.1
	}
	if cfg.Replicas < 0 {
		cfg.Replicas = 0
	}
	if cfg.Clients == 0 {
		cfg.Clients = 16
		if cfg.Replicas > 0 {
			cfg.Clients = 16 * cfg.Replicas
		}
	}
	if cfg.Writers == 0 {
		cfg.Writers = 4
	} else if cfg.Writers < 0 {
		cfg.Writers = 0
	}
	if cfg.Duration == 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 10 * time.Second
	}
	return cfg
}

func (cfg Config) logf(format string, args ...any) {
	if cfg.Log != nil {
		fmt.Fprintf(cfg.Log, format+"\n", args...)
	}
}

// poolUser is one generated bench identity: its portal credentials and a
// project it is a member of (0 for experts/admins, who see everything and
// write into the first bench project).
type poolUser struct {
	login    string
	password string
	role     string
	project  int64
}

const poolPassword = "bench-pw"

// preparePool creates the harness's client identities on top of the
// genload population: dedicated bench users (a small share of experts and
// one admin, the rest scientists) spread over dedicated bench projects,
// each with a portal credential. Dedicated users keep the workload's
// access scope deterministic — every reader browses projects it is a
// member of, every writer registers into a project it can write to —
// regardless of how genload assigned its random memberships.
func preparePool(sys *core.System, n int) ([]poolUser, []int64, error) {
	if n < 1 {
		n = 1
	}
	nProjects := n/4 + 1
	users := make([]poolUser, n)
	projects := make([]int64, nProjects)
	err := sys.Update(func(tx *store.Tx) error {
		ids := make([]int64, n)
		for i := range users {
			role := model.RoleScientist
			switch {
			case i == 0:
				role = model.RoleAdmin
			case i%8 == 1:
				role = model.RoleExpert
			}
			u := poolUser{
				login:    fmt.Sprintf("bench%04d", i+1),
				password: poolPassword,
				role:     role,
			}
			id, err := sys.DB.CreateUser(tx, "loadgen", model.User{
				Login: u.login, FullName: "Bench " + u.login, Role: role, Active: true,
			})
			if err != nil {
				return err
			}
			if err := sys.Auth.SetPassword(tx, u.login, u.password); err != nil {
				return err
			}
			ids[i] = id
			users[i] = u
		}
		for p := range projects {
			var members []int64
			for i := range users {
				if i%nProjects == p {
					members = append(members, ids[i])
				}
			}
			id, err := sys.DB.CreateProject(tx, "loadgen", model.Project{
				Name: fmt.Sprintf("bench-p%03d", p+1), Coach: ids[0],
				Members: members, Area: "genomics",
			})
			if err != nil {
				return err
			}
			projects[p] = id
		}
		for i := range users {
			if users[i].role == model.RoleScientist {
				users[i].project = projects[i%nProjects]
			} else {
				users[i].project = projects[0]
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return users, projects, nil
}

// BootServer serves the portal over a real localhost TCP listener and
// returns the base URL plus a shutdown function. The harness measures at
// this socket.
func BootServer(sys *core.System, cfg portal.Config) (string, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{
		Handler:           portal.NewWithConfig(sys, cfg),
		ReadHeaderTimeout: 5 * time.Second,
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	var once sync.Once
	var shutErr error
	shutdown := func() error {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				shutErr = err
				return
			}
			if err := <-done; err != nil && err != http.ErrServerClosed {
				shutErr = err
			}
		})
		return shutErr
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// Run executes one complete harness run: generate the population, boot
// the portal on a TCP socket, log the client pool in, drive the mixed
// workload for cfg.Duration, and return the measured report. A non-nil
// error means the harness itself failed to run; workload validation
// failures are reported through Report.Errors / Report.Failures.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	sys, err := core.New(core.Options{})
	if err != nil {
		return nil, err
	}
	profile := genload.FGCZJan2010.Scaled(cfg.Scale)
	profile.Seed = cfg.Seed
	start := time.Now()
	if err := genload.Generate(sys, profile); err != nil {
		return nil, fmt.Errorf("loadgen: population: %w", err)
	}
	cfg.logf("population generated at scale %.2f in %v", cfg.Scale, time.Since(start).Round(time.Millisecond))

	users, _, err := preparePool(sys, cfg.Clients+cfg.Writers)
	if err != nil {
		return nil, fmt.Errorf("loadgen: pool: %w", err)
	}
	base, shutdown, err := BootServer(sys, cfg.Portal)
	if err != nil {
		return nil, err
	}
	defer func() { _ = shutdown() }()
	cfg.logf("portal serving at %s", base)

	readerBases := []string{base}
	if cfg.Replicas > 0 {
		bases, cleanup, err := bootReplicas(cfg, sys)
		if cleanup != nil {
			defer cleanup()
		}
		if err != nil {
			return nil, err
		}
		readerBases = bases
	}

	report, err := drive(cfg, readerBases, base, users)
	if err != nil {
		return nil, err
	}
	if err := shutdown(); err != nil {
		return nil, fmt.Errorf("loadgen: shutdown: %w", err)
	}
	return report, nil
}

// bootReplicas stands up cfg.Replicas read replicas over real TCP: a WAL
// shipper on the primary, and per replica a fresh system wired exactly
// like the primary's (same schema registration), flipped into replica
// mode, followed up to the primary's current seq, and served by its own
// portal socket. Readers then browse and search replicated state while
// the primary keeps committing: the store keeps each replica's text index
// from the frames it applies, so replica search rows validate hits exactly
// like the primary's.
func bootReplicas(cfg Config, sys *core.System) ([]string, func(), error) {
	var cleanups []func()
	cleanup := func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
	shipper := repl.NewServer(sys.Store)
	shipAddr, err := shipper.Start("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	cleanups = append(cleanups, func() { shipper.Close() })

	head := sys.Store.CommitSeq()
	bases := make([]string, 0, cfg.Replicas)
	for i := 0; i < cfg.Replicas; i++ {
		fsys, err := core.NewWithStore(store.New(), core.Options{})
		if err != nil {
			return nil, cleanup, fmt.Errorf("loadgen: replica %d: %w", i+1, err)
		}
		fsys.Store.SetReplica(true)
		f := repl.NewFollower(fsys.Store, shipAddr, repl.FollowerOptions{})
		f.Start()
		cleanups = append(cleanups, f.Close)
		if err := f.WaitForSeq(head, 60*time.Second); err != nil {
			return nil, cleanup, fmt.Errorf("loadgen: replica %d catch-up: %w", i+1, err)
		}
		pcfg := cfg.Portal
		pcfg.ReplicaStatus = func() any { return f.Status() }
		rbase, rshut, err := BootServer(fsys, pcfg)
		if err != nil {
			return nil, cleanup, fmt.Errorf("loadgen: replica %d portal: %w", i+1, err)
		}
		cleanups = append(cleanups, func() { _ = rshut() })
		bases = append(bases, rbase)
		cfg.logf("replica %d caught up to seq %d, serving at %s", i+1, head, rbase)
	}
	return bases, cleanup, nil
}
