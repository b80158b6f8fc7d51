// Svcclient: a minimal client for the trimsvc experiment service.
//
// Boot the service, then submit a run, follow its live SSE metric
// stream, and print the final result:
//
//	trimsvc -addr 127.0.0.1:8089 &
//	go run ./examples/svcclient -svc http://127.0.0.1:8089 -runner fig4
//
// The client is plain net/http — the service speaks JSON over REST and
// server-sent events, nothing more exotic.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "svcclient:", err)
		os.Exit(1)
	}
}

func run() error {
	svc := flag.String("svc", "http://127.0.0.1:8089", "trimsvc base URL")
	runner := flag.String("runner", "fig4", "experiment id (see trimsim -list)")
	seed := flag.Int64("seed", 0, "random seed (0 = default)")
	flag.Parse()

	// Submit.
	spec := map[string]any{"runner": *runner}
	if *seed != 0 {
		spec["seed"] = *seed
	}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(*svc+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var job struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Cached bool   `json:"cached"`
		Error  string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("submit: %s (%s)", resp.Status, job.Error)
	}
	fmt.Printf("run %s: %s (cached=%t)\n", job.ID, job.State, job.Cached)

	// Follow the SSE stream until the terminal event; the replay buffer
	// means attaching late (or to a cached run) still shows the history.
	events, err := http.Get(*svc + "/v1/runs/" + job.ID + "/events")
	if err != nil {
		return err
	}
	defer events.Body.Close()
	sc := bufio.NewScanner(events.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	done := false
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			Kind  string  `json:"kind"`
			Name  string  `json:"name"`
			At    float64 `json:"at"`
			Value float64 `json:"value"`
			Done  int     `json:"done"`
			Total int     `json:"total"`
			Error string  `json:"error"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			continue
		}
		switch ev.Kind {
		case "sample":
			fmt.Printf("  t=%8.4fs  %-22s %10.2f\n", ev.At, ev.Name, ev.Value)
		case "responses":
			fmt.Printf("  t=%8.4fs  responses completed    %10.0f\n", ev.At, ev.Value)
		case "cell":
			fmt.Printf("  cell %d/%d done: %s\n", ev.Done, ev.Total, ev.Name)
		case "fct", "retrans":
			fmt.Printf("  %s milestone for %s\n", ev.Kind, ev.Name)
		case "done":
			fmt.Println("  run complete")
			done = true
		case "error", "canceled", "shutdown":
			return fmt.Errorf("run ended: %s %s", ev.Kind, ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	if !done {
		return fmt.Errorf("events: stream closed before a terminal event")
	}

	// Fetch the result — byte-identical to trimsim -run with the same
	// options.
	result, err := http.Get(*svc + "/v1/runs/" + job.ID + "/result")
	if err != nil {
		return err
	}
	defer result.Body.Close()
	if result.StatusCode != http.StatusOK {
		return fmt.Errorf("result: %s", result.Status)
	}
	_, err = io.Copy(os.Stdout, result.Body)
	return err
}
