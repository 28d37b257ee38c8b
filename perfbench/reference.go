package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"setagree/internal/cluster"
	"setagree/internal/collections"
	"setagree/internal/explore"
	"setagree/internal/value"
)

// The reference answers every run checks its verdicts against. The
// theorems fix the verdicts; the counts pin the families' sizes. The
// collections table was confirmed row by row against the model checker
// by collections.CrossValidate when it was written (--write-reference).
//
//go:embed reference.json
var referenceJSON []byte

type reference struct {
	// Explore is the verdict of every Algorithm 2 check (Thm 4.1).
	Explore string `json:"explore"`
	// ExploreCounts maps an n=7 size class (see newExploreCase) to the
	// schedule-independent counts of its Valency check.
	ExploreCounts map[string]exploreCounts `json:"explore_counts"`
	// Sweeps maps a sweep name to its expected outcome: zero solvers
	// and zero inconclusive candidates (Thms 4.2, 5.2 and 7.1).
	Sweeps map[string]sweepRef `json:"sweeps"`
	// Collections is the expected row table of cluster.CollectionsRef.
	Collections []collectionRow `json:"collections"`
}

// exploreCounts are the schedule-independent counts of one check.
type exploreCounts struct {
	States             int `json:"states"`
	Transitions        int `json:"transitions"`
	Quiescent          int `json:"quiescent"`
	Bivalent           int `json:"bivalent,omitempty"`
	Univalent0         int `json:"univalent0,omitempty"`
	Univalent1         int `json:"univalent1,omitempty"`
	Null               int `json:"null,omitempty"`
	Critical           int `json:"critical,omitempty"`
	CriticalSameObject int `json:"critical_same_object,omitempty"`
}

func countsOf(rep *explore.Report) exploreCounts {
	c := exploreCounts{States: rep.States, Transitions: rep.Transitions, Quiescent: rep.Quiescent}
	if v := rep.Valency; v != nil {
		c.Bivalent, c.Univalent0, c.Univalent1, c.Null = v.Bivalent, v.Univalent0, v.Univalent1, v.Null
		c.Critical, c.CriticalSameObject = v.CriticalCount, v.CriticalSameObject
	}
	return c
}

type sweepRef struct {
	Candidates   int `json:"candidates"`
	Pruned       int `json:"pruned"`
	Solvers      int `json:"solvers"`
	Inconclusive int `json:"inconclusive"`
}

// collectionRow is the verdict part of a collections.Row.
type collectionRow struct {
	Index        int    `json:"index"`
	Collection   string `json:"collection"`
	Canonical    string `json:"canonical"`
	MinAgreement int    `json:"min_agreement"`
	Solvable     bool   `json:"solvable"`
}

func loadReference() (*reference, error) {
	var ref reference
	dec := json.NewDecoder(bytes.NewReader(referenceJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return &ref, nil
}

// sweepSpecs are the dacd sweep job specs, by reference name.
var sweepSpecs = map[string]func() cluster.SweepSpec{
	"thm52": cluster.Thm52,
	"thm71": cluster.Thm71,
}

// writeReference recomputes every reference answer, refuses to write
// one that contradicts its theorem or that the model checker does not
// confirm, and writes the table to path.
func writeReference(path string) error {
	ref := reference{Explore: "solved", ExploreCounts: map[string]exploreCounts{}, Sweeps: map[string]sweepRef{}}
	if err := writeExploreCounts(ref.ExploreCounts); err != nil {
		return err
	}
	for depth := 1; depth <= 2; depth++ {
		c, err := sweepOnce(nil, depth, binaryVectors(3), sweepRef{})
		if c == nil {
			return err
		}
		ref.Sweeps[fmt.Sprintf("thm42-d%d", depth)] = sweepRef{
			Candidates: c.candidates, Pruned: c.pruned,
			Solvers: len(c.rr.Solvers), Inconclusive: len(c.rr.Inconclusive),
		}
	}
	for name, sp := range sweepSpecs {
		rep, err := cluster.Run(context.Background(), sp(), cluster.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		ref.Sweeps[name] = sweepRef{Candidates: rep.Candidates, Pruned: rep.Pruned,
			Solvers: len(rep.Solvers), Inconclusive: len(rep.Inconclusive)}
	}
	for name, s := range ref.Sweeps {
		if s.Candidates == 0 || s.Solvers != 0 || s.Inconclusive != 0 {
			return fmt.Errorf("sweep %s: %+v contradicts its theorem (want zero solvers and zero inconclusive)", name, s)
		}
	}

	sp := cluster.CollectionsRef()
	rep, err := cluster.RunCollections(context.Background(), sp, cluster.Options{})
	if err != nil {
		return fmt.Errorf("collections: %w", err)
	}
	space, tsk := sp.Space(), sp.Task()
	eng := collections.NewEngine()
	for _, row := range rep.Rows {
		c, err := space.At(row.Index)
		if err != nil {
			return err
		}
		cr, err := collections.CrossValidate(eng, c, tsk, collections.CrossOptions{})
		if err != nil {
			return fmt.Errorf("collections row %d: %w", row.Index, err)
		}
		if !cr.Confirmed || cr.Solvable != row.Solvable {
			return fmt.Errorf("collections row %d (%s): model checker does not confirm the verdict: %s", row.Index, row.Collection, cr.Detail)
		}
		ref.Collections = append(ref.Collections, rowOf(row))
	}
	buf, err := json.MarshalIndent(&ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// writeExploreCounts fills counts for every n=7 class (ones, p_input)
// with the in-memory engine, from two instances of the class whose
// processes are labelled differently, and refuses to write a class
// whose two instances disagree or whose verdict is not solved.
func writeExploreCounts(counts map[string]exploreCounts) error {
	for ones := 1; ones < exploreN; ones++ {
		for _, pInput := range []value.Value{0, 1} {
			var first *exploreCounts
			for _, lowFirst := range []bool{true, false} {
				// The ones sit at the low or the high process indices;
				// p is the first or the last process holding pInput.
				in := make([]value.Value, exploreN)
				for i := range in {
					if lowFirst && i < ones || !lowFirst && i >= exploreN-ones {
						in[i] = 1
					}
				}
				p := 0
				for i := range in {
					if in[i] == pInput && (p == 0 || !lowFirst) {
						p = i + 1
					}
				}
				c, err := newExploreCase(exploreInput{in: in, p: p})
				if err != nil {
					return err
				}
				rep, err := explore.Check(c.sys, c.tsk, explore.Options{Valency: true})
				if err != nil {
					return fmt.Errorf("class %s: %w", c.class, err)
				}
				if !rep.Solved() {
					return fmt.Errorf("class %s: refuted, contradicting Theorem 4.1", c.class)
				}
				got := countsOf(rep)
				if first != nil && got != *first {
					return fmt.Errorf("class %s: instances disagree: %+v vs %+v", c.class, got, *first)
				}
				first = &got
				counts[c.class] = got
			}
		}
	}
	return nil
}

func rowOf(r collections.Row) collectionRow {
	return collectionRow{Index: r.Index, Collection: r.Collection, Canonical: r.Canonical,
		MinAgreement: r.MinAgreement, Solvable: r.Solvable}
}
