// Command bfabric-bench regenerates the paper's artifacts: the FGCZ
// deployment-statistics table (T1) and a demonstration transcript for each
// behavioural figure (F1–F16) plus the full-text-search and audit
// features. It is the human-readable companion of the testing.B benchmarks
// in the repository root.
//
// Usage:
//
//	bfabric-bench -artifact T1          # one artifact
//	bfabric-bench -artifact all         # everything
//	bfabric-bench -artifact T1 -scale 0.1
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/genload"
	"repro/internal/importer"
	"repro/internal/model"
	"repro/internal/provider"
	"repro/internal/store"
	"repro/internal/vocab"
)

func main() {
	artifact := flag.String("artifact", "all", "artifact id (T1, F1, F2, ..., F16, S-FT, S-AU or all)")
	scale := flag.Float64("scale", 1.0, "population scale for T1 (1.0 = full FGCZ size)")
	flag.Parse()

	artifacts := map[string]func(float64) error{
		"T1":   runT1,
		"F1":   runF1,
		"F2":   runF2toF3,
		"F3":   runF2toF3,
		"F4":   runF4toF8,
		"F5":   runF4toF8,
		"F6":   runF4toF8,
		"F7":   runF4toF8,
		"F8":   runF4toF8,
		"F9":   runF9toF11,
		"F10":  runF9toF11,
		"F11":  runF9toF11,
		"F12":  runF12toF16,
		"F13":  runF12toF16,
		"F14":  runF12toF16,
		"F15":  runF12toF16,
		"F16":  runF12toF16,
		"S-FT": runSearchFeature,
		"S-AU": runAuditFeature,
	}

	if *artifact == "all" {
		// Deduplicate grouped runners while keeping a stable order.
		order := []string{"T1", "F1", "F2", "F4", "F9", "F12", "S-FT", "S-AU"}
		for _, id := range order {
			fmt.Printf("\n================ artifact %s ================\n", id)
			if err := artifacts[id](*scale); err != nil {
				log.Fatalf("artifact %s: %v", id, err)
			}
		}
		return
	}
	run, ok := artifacts[*artifact]
	if !ok {
		known := make([]string, 0, len(artifacts))
		for id := range artifacts {
			known = append(known, id)
		}
		sort.Strings(known)
		fmt.Fprintf(os.Stderr, "unknown artifact %q; known: %s\n", *artifact, strings.Join(known, " "))
		os.Exit(2)
	}
	if err := run(*scale); err != nil {
		log.Fatalf("artifact %s: %v", *artifact, err)
	}
}

// runT1 reproduces the deployment statistics table.
func runT1(scale float64) error {
	fmt.Println("T1: FGCZ deployment statistics (January 2010)")
	p := genload.FGCZJan2010
	if scale != 1.0 {
		p = p.Scaled(scale)
		fmt.Printf("(scaled by %.3f)\n", scale)
	}
	sys := core.MustNew(core.Options{DisableSearch: true, DisableAudit: true})
	start := time.Now()
	if err := genload.Generate(sys, p); err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Println("\npaper reports:")
	fmt.Print(genload.StatsTable(model.Stats{
		Users: 1555, Projects: 750, Institutes: 224, Organizations: 59,
		Samples: 3151, Extracts: 3642, DataResources: 40005, Workunits: 23979,
	}))
	fmt.Println("\nthis reproduction measures:")
	fmt.Print(genload.StatsTable(sys.DB.CollectStats()))
	fmt.Printf("\ngenerated in %v\n", elapsed.Round(time.Millisecond))
	return nil
}

// runF1 prints the metadata schema of Figure 1.
func runF1(float64) error {
	fmt.Println("F1: core metadata schema (Figure 1)")
	sys := core.MustNew(core.Options{DisableSearch: true, DisableAudit: true})
	for _, kindName := range sys.Registry.Kinds() {
		k := sys.Registry.Kind(kindName)
		fmt.Printf("\n%s\n", kindName)
		for _, f := range k.Fields {
			line := fmt.Sprintf("  %-18s %s", f.Name, f.Type)
			if f.RefKind != "" {
				line += " -> " + f.RefKind
			}
			if f.Vocabulary != "" {
				line += " [vocabulary: " + f.Vocabulary + "]"
			}
			if f.Required {
				line += " (required)"
			}
			fmt.Println(line)
		}
	}
	return nil
}

// demoSystem builds the common scenario fixture.
func demoSystem() (*core.System, int64, error) {
	sys := core.MustNew(core.Options{})
	samples := []string{"AT-1-control", "AT-2-control", "AT-1-treated", "AT-2-treated"}
	gp, gpStore := provider.NewAffymetrixGeneChip("genechip", samples)
	sys.Storage.Mount(gpStore)
	if err := sys.Providers.Register(gp); err != nil {
		return nil, 0, err
	}
	var project int64
	err := sys.Update(func(tx *store.Tx) error {
		alice, err := sys.DB.CreateUser(tx, "bench", model.User{Login: "alice", Role: model.RoleScientist, Active: true})
		if err != nil {
			return err
		}
		project, err = sys.DB.CreateProject(tx, "bench", model.Project{Name: "p1000", Members: []int64{alice}})
		return err
	})
	return sys, project, err
}

// runF2toF3 demonstrates sample/extract registration with cloning and
// batches.
func runF2toF3(float64) error {
	fmt.Println("F2-F3: register sample and extract (cloning + batch)")
	sys, project, err := demoSystem()
	if err != nil {
		return err
	}
	return sys.Update(func(tx *store.Tx) error {
		if _, err := sys.Vocab.AddTerm(tx, "alice", model.VocabSpecies, "Arabidopsis thaliana", true); err != nil {
			return err
		}
		sid, err := sys.DB.CreateSample(tx, "alice", model.Sample{
			Name: "AT-pool", Project: project, Species: "Arabidopsis thaliana",
		})
		if err != nil {
			return err
		}
		fmt.Printf("registered sample %d\n", sid)
		clone, err := sys.DB.CloneSample(tx, "alice", sid, "AT-pool-copy")
		if err != nil {
			return err
		}
		fmt.Printf("cloned to sample %d\n", clone)
		ids, err := sys.DB.BatchCreateSamples(tx, "alice", model.Sample{
			Name: "tpl", Project: project, Species: "Arabidopsis thaliana",
		}, "AT-batch", 10)
		if err != nil {
			return err
		}
		fmt.Printf("batch-registered %d samples (%s..%s)\n", len(ids), "AT-batch_1", "AT-batch_10")
		eids, err := sys.DB.BatchCreateExtracts(tx, "alice", model.Extract{
			Name: "tpl", Sample: sid,
		}, "AT-extract", 5)
		if err != nil {
			return err
		}
		fmt.Printf("batch-registered %d extracts\n", len(eids))
		return nil
	})
}

// runF4toF8 demonstrates the annotation lifecycle: pending creation, task
// generation, similarity detection, merge and re-association.
func runF4toF8(float64) error {
	fmt.Println("F4-F8: annotation review, similarity detection, merge, tasks")
	sys, project, err := demoSystem()
	if err != nil {
		return err
	}
	var keep, drop vocab.Term
	if err := sys.Update(func(tx *store.Tx) error {
		keep, err = sys.Vocab.AddTerm(tx, "alice", model.VocabDiseaseState, "Hopeless", false)
		if err != nil {
			return err
		}
		if _, err := sys.DB.CreateSample(tx, "alice", model.Sample{
			Name: "s-correct", Project: project, DiseaseState: "Hopeless",
		}); err != nil {
			return err
		}
		drop, err = sys.Vocab.AddTerm(tx, "bob", model.VocabDiseaseState, "Hopeles", false)
		if err != nil {
			return err
		}
		_, err = sys.DB.CreateSample(tx, "bob", model.Sample{
			Name: "s-misspelled", Project: project, DiseaseState: "Hopeles",
		})
		return err
	}); err != nil {
		return err
	}
	if err := sys.View(func(tx *store.Tx) error {
		open, err := sys.Tasks.ListOpen(tx, "", "expert")
		if err != nil {
			return err
		}
		fmt.Printf("expert task list (Figure 8): %d open task(s)\n", len(open))
		for _, t := range open {
			fmt.Printf("  - %s\n", t.Title)
		}
		cands, err := sys.Vocab.Similar(tx, model.VocabDiseaseState, "Hopeles")
		if err != nil {
			return err
		}
		for _, c := range cands {
			fmt.Printf("similarity detector (Figure 5): %q ~ %q score %.3f\n",
				"Hopeles", c.Term.Value, c.Score)
		}
		return nil
	}); err != nil {
		return err
	}
	return sys.Update(func(tx *store.Tx) error {
		res, err := sys.Vocab.Merge(tx, "eva", keep.ID, drop.ID, "")
		if err != nil {
			return err
		}
		fmt.Printf("merged %q into %q (Figures 6-7); re-associated: %v\n",
			drop.Value, res.Winner.Value, res.Reassociated)
		n, err := sys.Tasks.CountOpen(tx)
		if err != nil {
			return err
		}
		fmt.Printf("open tasks after merge: %d\n", n)
		return nil
	})
}

// runF9toF11 demonstrates the import flow.
func runF9toF11(float64) error {
	fmt.Println("F9-F11: instrument import, workflow, best-match assignment")
	sys, project, err := demoSystem()
	if err != nil {
		return err
	}
	var res importer.Result
	if err := sys.Update(func(tx *store.Tx) error {
		sid, err := sys.DB.CreateSample(tx, "alice", model.Sample{Name: "AT", Project: project})
		if err != nil {
			return err
		}
		for _, name := range []string{"AT-1-control", "AT-2-control", "AT-1-treated", "AT-2-treated"} {
			if _, err := sys.DB.CreateExtract(tx, "alice", model.Extract{Name: name, Sample: sid}); err != nil {
				return err
			}
		}
		res, err = sys.Importer.Import(tx, importer.Request{
			Provider: "genechip", Mode: importer.Copy, WorkunitName: "GeneChip import",
			Project: project, Actor: "alice",
		})
		if err != nil {
			return err
		}
		fmt.Printf("imported %d files into workunit %d (Figure 9)\n", len(res.Resources), res.Workunit)
		matches, err := sys.Importer.BestMatches(tx, res.Workunit)
		if err != nil {
			return err
		}
		fmt.Println("best matches (Figure 11):")
		for _, m := range matches {
			r, _ := sys.DB.GetDataResource(tx, m.Resource)
			e, _ := sys.DB.GetExtract(tx, m.Extract)
			fmt.Printf("  %-20s -> %-16s score %.3f\n", r.Name, e.Name, m.Score)
		}
		if err := sys.Importer.ApplyMatches(tx, "alice", matches); err != nil {
			return err
		}
		return sys.Importer.CompleteImport(tx, "alice", res.WorkflowInstance)
	}); err != nil {
		return err
	}
	return sys.View(func(tx *store.Tx) error {
		inst, err := sys.Workflows.Get(tx, res.WorkflowInstance)
		if err != nil {
			return err
		}
		def := sys.Workflows.Definition(inst.Definition)
		fmt.Printf("\nimport workflow (Figure 10, DOT):\n%s", def.DOT(inst.Step))
		wu, _ := sys.DB.GetWorkunit(tx, res.Workunit)
		fmt.Printf("workunit state: %s\n", wu.State)
		return nil
	})
}

// runF12toF16 demonstrates application registration and the experiment run.
func runF12toF16(float64) error {
	fmt.Println("F12-F16: application registration, experiment definition and run")
	sys, project, err := demoSystem()
	if err != nil {
		return err
	}
	var appID, expID int64
	var imp importer.Result
	if err := sys.Update(func(tx *store.Tx) error {
		appID, err = sys.DB.CreateApplication(tx, "admin", model.Application{
			Name: "two group analysis", Connector: "rserve", Program: "twogroup.R",
			InputSpec: []string{"resources"}, ParamSpec: []string{"reference_group"},
			Active: true,
		})
		if err != nil {
			return err
		}
		fmt.Printf("registered application %d via rserve connector (Figure 12)\n", appID)
		imp, err = sys.Importer.Import(tx, importer.Request{
			Provider: "genechip", Mode: importer.Copy, WorkunitName: "arrays",
			Project: project, Actor: "alice",
		})
		if err != nil {
			return err
		}
		expID, err = sys.DB.CreateExperiment(tx, "alice", model.Experiment{
			Name: "AT light effect", Project: project, Resources: imp.Resources,
			Attributes: map[string]string{"species": "Arabidopsis thaliana", "treatment": "light"},
		})
		if err != nil {
			return err
		}
		fmt.Printf("defined experiment %d over %d resources (Figure 13)\n", expID, len(imp.Resources))
		return nil
	}); err != nil {
		return err
	}
	var run apps.RunResult
	if err := sys.Update(func(tx *store.Tx) error {
		run, err = sys.Executor.RunExperiment(tx, apps.RunRequest{
			Experiment: expID, Application: appID, WorkunitName: "AT results",
			Params: map[string]string{"reference_group": "control"}, Actor: "alice",
		})
		return err
	}); err != nil {
		return err
	}
	if run.Failed {
		return fmt.Errorf("experiment failed: %s", run.Error)
	}
	return sys.View(func(tx *store.Tx) error {
		wu, err := sys.DB.GetWorkunit(tx, run.Workunit)
		if err != nil {
			return err
		}
		fmt.Printf("experiment ran (Figure 14); result workunit %d state=%s (Figures 15-16)\n",
			run.Workunit, wu.State)
		rs, _ := sys.DB.ResourcesOfWorkunit(tx, run.Workunit)
		for _, r := range rs {
			role := "output"
			if r.IsInput {
				role = "input"
			}
			fmt.Printf("  %-6s %-16s %6d bytes %s\n", role, r.Name, r.SizeBytes, r.Format)
			if r.Name == "results.zip" {
				data, err := sys.Storage.Open(r.URI)
				if err != nil {
					return err
				}
				names, err := apps.ReadZip(data)
				if err != nil {
					return err
				}
				fmt.Printf("         zip contents: %v\n", names)
			}
		}
		return nil
	})
}

// runSearchFeature demonstrates full-text search.
func runSearchFeature(float64) error {
	fmt.Println("S-FT: full-text search (quick, advanced, history, saved, export)")
	sys, project, err := demoSystem()
	if err != nil {
		return err
	}
	if err := sys.Update(func(tx *store.Tx) error {
		for i, treatment := range []string{"light", "dark", "light"} {
			if _, err := sys.DB.CreateSample(tx, "alice", model.Sample{
				Name: fmt.Sprintf("AT-%d-%s", i+1, treatment), Project: project,
				Species: "Arabidopsis thaliana", Treatment: treatment,
			}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	for _, q := range []string{"arabidopsis", "treatment:light", "kind:sample light OR dark"} {
		hits, err := sys.Search.Search("alice", q)
		if err != nil {
			return err
		}
		fmt.Printf("query %-32q -> %d hit(s)\n", q, len(hits))
	}
	fmt.Printf("history: %v\n", sys.Search.History("alice"))
	var qid int64
	if err := sys.Update(func(tx *store.Tx) error {
		qid, err = sys.Search.SaveQuery(tx, "alice", "my lights", "treatment:light")
		return err
	}); err != nil {
		return err
	}
	hits, err := sys.Search.RunSaved("alice", qid)
	if err != nil {
		return err
	}
	fmt.Printf("saved query re-run -> %d hit(s)\n", len(hits))
	fmt.Println("CSV export:")
	return sys.View(func(tx *store.Tx) error { return sys.Search.ExportCSV(tx, os.Stdout, hits) })
}

// runAuditFeature demonstrates the manipulation log.
func runAuditFeature(float64) error {
	fmt.Println("S-AU: audit log of create/update/delete operations")
	sys, project, err := demoSystem()
	if err != nil {
		return err
	}
	var sid int64
	if err := sys.Update(func(tx *store.Tx) error {
		sid, err = sys.DB.CreateSample(tx, "alice", model.Sample{Name: "audited", Project: project})
		return err
	}); err != nil {
		return err
	}
	if err := sys.Update(func(tx *store.Tx) error {
		return sys.DB.UpdateSample(tx, "alice", sid, map[string]any{"description": "updated"})
	}); err != nil {
		return err
	}
	return sys.View(func(tx *store.Tx) error {
		es, err := sys.Audit.ByObject(tx, model.KindSample, sid)
		if err != nil {
			return err
		}
		for _, e := range es {
			fmt.Printf("seq=%d %-16s actor=%-8s fields=%v\n", e.Seq, e.Topic, e.Actor, e.Fields)
		}
		return nil
	})
}
