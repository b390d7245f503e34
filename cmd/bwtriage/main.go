// Command bwtriage runs the investigation phase over exported candidate
// cases: train the random-forest classifier on analyst-labeled cases,
// classify the rest, and print the review queue ordered by classifier
// uncertainty (the paper's Sect. VI workflow).
//
// Usage:
//
//	# train on labels, classify the rest, save the model:
//	bwtriage -cases cases.json -labels labels.json -save-model rf.gob.gz
//
//	# classify with a previously trained model:
//	bwtriage -cases newcases.json -model rf.gob.gz -top 30
//
// The cases file is produced by `baywatch -cases cases.json`; the labels
// file is JSON mapping case IDs to 0 (benign) or 1 (malicious).
package main

import (
	"flag"
	"fmt"
	"os"

	"baywatch/internal/casefile"
	"baywatch/internal/forest"
	"baywatch/internal/triage"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bwtriage:", err)
		os.Exit(1)
	}
}

func run() error {
	casesPath := flag.String("cases", "", "case file from baywatch -cases (required)")
	labelsPath := flag.String("labels", "", "JSON labels {caseID: 0|1} to train on")
	modelPath := flag.String("model", "", "load a trained model instead of training")
	saveModel := flag.String("save-model", "", "save the trained model here")
	trees := flag.Int("trees", 200, "forest size when training")
	top := flag.Int("top", 25, "review-queue entries to print")
	flag.Parse()
	if *casesPath == "" {
		flag.Usage()
		return fmt.Errorf("missing -cases")
	}
	if *labelsPath == "" && *modelPath == "" {
		return fmt.Errorf("need -labels (to train) or -model (to classify)")
	}

	cases, err := casefile.Read(*casesPath)
	if err != nil {
		return err
	}
	fmt.Printf("loaded %d cases from %s\n", len(cases), *casesPath)

	var rf *forest.Forest
	var labels map[string]int
	if *labelsPath != "" {
		labels, err = casefile.ReadLabels(*labelsPath)
		if err != nil {
			return err
		}
	}

	// Partition cases into the labeled training window and the rest.
	var train []triage.Labeled
	var rest []casefile.Case
	for _, c := range cases {
		if label, ok := labels[c.ID]; ok && *modelPath == "" {
			train = append(train, triage.Labeled{ID: c.ID, Features: c.Features, Label: label})
		} else {
			rest = append(rest, c)
		}
	}

	if *modelPath != "" {
		rf, err = forest.Load(*modelPath)
		if err != nil {
			return err
		}
		fmt.Printf("loaded model from %s (%d trees)\n", *modelPath, rf.Trees())
	} else {
		if len(train) == 0 {
			return fmt.Errorf("no case in %s carries a label from %s", *casesPath, *labelsPath)
		}
		x := make([][]float64, len(train))
		y := make([]int, len(train))
		for i, c := range train {
			x[i] = c.Features
			y[i] = c.Label
		}
		rf, err = forest.Train(x, y, forest.Config{Trees: *trees})
		if err != nil {
			return err
		}
		fmt.Printf("trained %d trees on %d labeled cases (OOB error %.3f)\n",
			rf.Trees(), len(train), rf.OOBError)
		if *saveModel != "" {
			if err := rf.Save(*saveModel); err != nil {
				return err
			}
			fmt.Printf("model saved to %s\n", *saveModel)
		}
	}

	// Classify the remaining cases.
	verdicts := make([]triage.Classified, 0, len(rest))
	byID := make(map[string]casefile.Case, len(rest))
	malicious := 0
	for _, c := range rest {
		p, err := rf.PredictProb(c.Features)
		if err != nil {
			return err
		}
		pred := 0
		if p >= 0.5 {
			pred = 1
		}
		malicious += pred
		verdicts = append(verdicts, triage.Classified{
			ID: c.ID, Prob: p, Predicted: pred,
			Uncertainty: 1 - abs(2*p-1),
		})
		byID[c.ID] = c
	}
	fmt.Printf("classified %d cases: %d malicious, %d benign\n\n",
		len(verdicts), malicious, len(verdicts)-malicious)

	// If the labels file also covers classified cases, report the matrix.
	if labels != nil {
		m, skipped := triage.Evaluate(verdicts, labels)
		if m.Total() > 0 {
			fmt.Printf("against provided labels (%d cases, %d unlabeled): TB=%d FP=%d FN=%d TP=%d\n\n",
				m.Total(), skipped, m.TrueBenign, m.FalsePositive, m.FalseNegative, m.TruePositive)
		}
	}

	fmt.Printf("review queue (most uncertain first):\n")
	fmt.Printf("%-4s %-44s %-8s %-12s %s\n", "#", "case", "p(mal)", "uncertainty", "score")
	for i, v := range triage.ByUncertainty(verdicts) {
		if i >= *top {
			break
		}
		fmt.Printf("%-4d %-44s %-8.2f %-12.2f %.3f\n",
			i+1, clip(v.ID, 44), v.Prob, v.Uncertainty, byID[v.ID].Score)
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-2] + ".."
}
