package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"crosse/internal/core"
	"crosse/internal/dataset"
	"crosse/internal/engine"
	"crosse/internal/fdw"
	"crosse/internal/kb"
	"crosse/internal/rest"
	"crosse/internal/serve"
	"crosse/internal/wal"
)

// The journal runs under crosse-server's default -wal-sync interval and
// -wal-sync-interval.
const (
	journalSync = wal.SyncInterval
	syncEvery   = 100 * time.Millisecond
)

// system is the served platform as cmd/crosse-server builds it: a
// journal-backed databank and KB platform, an enricher, the REST server
// with its result cache, an optional attached FDW data node, and a real
// loopback listener.
type system struct {
	wl       *workload
	dir      string // journal directory
	journal  *core.Journal
	enricher *core.Enricher
	cache    *serve.Cache // nil when the workload turns caching off
	url      string

	httpSrv   *http.Server
	serveDone chan error

	fdwSrv    *fdw.Server
	fdwClient *fdw.Client
}

// bootstrap returns the journal's first-boot state for wl: the databank,
// every user's KB and the shared dangerQuery.
func bootstrap(wl *workload) func() (*engine.DB, *kb.Platform, error) {
	return func() (*engine.DB, *kb.Platform, error) {
		db := engine.Open()
		cfg := dataset.DefaultConfig()
		cfg.Landfills = wl.landfills
		if err := dataset.Populate(db, cfg); err != nil {
			return nil, nil, fmt.Errorf("populate databank: %w", err)
		}
		p := kb.NewPlatform()
		if err := dataset.RegisterDangerQuery(p); err != nil {
			return nil, nil, fmt.Errorf("register dangerQuery: %w", err)
		}
		for i := 0; i < wl.users; i++ {
			u := userName(i)
			if err := p.RegisterUser(u); err != nil {
				return nil, nil, err
			}
			oc := dataset.DefaultOntology()
			oc.Seed = int64(100 + i)
			oc.ExtraTriples = wl.extraTriples
			if _, err := dataset.PopulateOntology(p, u, oc); err != nil {
				return nil, nil, fmt.Errorf("populate KB of %s: %w", u, err)
			}
		}
		return db, p, nil
	}
}

// newEnricher wires an enricher over the journal's state the way
// crosse-server does.
func newEnricher(j *core.Journal) *core.Enricher {
	e := core.New(j.DB(), j.Platform(), nil)
	e.Activity = core.NewActivity()
	return e
}

// newServer wraps an enricher in a REST server with its own result cache.
func newServer(wl *workload, e *core.Enricher, j *core.Journal) (*rest.Server, *serve.Cache) {
	srv := rest.NewServer(e)
	srv.SetLogf(nil)
	srv.SetJournal(j)
	var c *serve.Cache
	if wl.cacheEntries > 0 {
		c = serve.NewCache(wl.cacheEntries, cacheBytes)
		srv.SetResultCache(c)
	}
	return srv, c
}

// startSystem builds the system in a fresh journal directory under
// workdir and returns once the server has answered its first request.
func startSystem(wl *workload, workdir string) (*system, error) {
	dir, err := os.MkdirTemp(workdir, "journal-")
	if err != nil {
		return nil, err
	}
	s := &system{wl: wl, dir: dir}
	if err := s.start(); err != nil {
		s.close()
		os.RemoveAll(dir)
		return nil, err
	}
	return s, nil
}

func (s *system) start() error {
	j, _, err := core.OpenJournal(s.dir, core.JournalOptions{Sync: journalSync, SyncEvery: syncEvery}, bootstrap(s.wl))
	if err != nil {
		return fmt.Errorf("open journal: %w", err)
	}
	s.journal = j
	s.enricher = newEnricher(j)
	j.Platform().SetConceptChecker(core.NewConceptChecker(j.DB(), s.enricher.Mapping))

	if s.wl.fdwLandfills > 0 {
		if err := s.attachFDW(); err != nil {
			return err
		}
	}

	srv, cache := newServer(s.wl, s.enricher, j)
	s.cache = cache
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.url = "http://" + lis.Addr().String()
	s.httpSrv = &http.Server{Handler: srv.Handler()}
	s.serveDone = make(chan error, 1)
	go func() { s.serveDone <- s.httpSrv.Serve(lis) }()

	resp, err := http.Get(s.url + "/healthz")
	if err != nil {
		return fmt.Errorf("first request: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("first request: status %d", resp.StatusCode)
	}
	return nil
}

// attachFDW serves a data node as cmd/fdw-server builds one on a loopback
// listener and attaches its tables with prefix remote_.
func (s *system) attachFDW() error {
	rdb := engine.Open()
	cfg := dataset.DefaultConfig()
	cfg.Landfills = s.wl.fdwLandfills
	cfg.Seed = 99
	if err := dataset.Populate(rdb, cfg); err != nil {
		return fmt.Errorf("populate FDW node: %w", err)
	}
	s.fdwSrv = fdw.NewServer(rdb.Catalog())
	addr, err := s.fdwSrv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	s.fdwClient, err = fdw.DialConfig(addr, fdw.Config{Name: addr, RequestTimeout: 30 * time.Second})
	if err != nil {
		return fmt.Errorf("attach %s: %w", addr, err)
	}
	if _, err := s.fdwClient.Attach(s.journal.DB().Catalog(), "remote_"); err != nil {
		return fmt.Errorf("import foreign schema: %w", err)
	}
	return nil
}

// stopServing shuts the HTTP listener down and waits for it.
func (s *system) stopServing() error {
	if s.httpSrv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	if serr := <-s.serveDone; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.httpSrv = nil
	return err
}

// close stops everything the system started. The journal directory stays
// for the durability check; the caller removes it.
func (s *system) close() error {
	err := s.stopServing()
	if s.fdwClient != nil {
		s.fdwClient.Close()
		s.fdwClient = nil
	}
	if s.fdwSrv != nil {
		s.fdwSrv.Close()
		s.fdwSrv = nil
	}
	if s.journal != nil {
		if cerr := s.journal.Close(); cerr != nil && err == nil {
			err = cerr
		}
		s.journal = nil
	}
	return err
}
