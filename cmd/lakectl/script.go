package main

// lakectl script — manage scripted access methods on a live lakeserve over
// its /v1/scripts endpoints: upload (validate-at-POST), list, fetch source
// (with what each function has cost so far), and delete. The server compiles
// the script once at upload; compile errors come back verbatim with the
// failing line.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"
)

func cmdScript(args []string) {
	if len(args) < 1 {
		scriptUsage()
	}
	switch args[0] {
	case "put":
		cmdScriptPut(args[1:])
	case "ls":
		cmdScriptLs(args[1:])
	case "get":
		cmdScriptGet(args[1:])
	case "rm":
		cmdScriptRm(args[1:])
	default:
		scriptUsage()
	}
}

func scriptUsage() {
	fmt.Fprintln(os.Stderr, "usage: lakectl script {put|ls|get|rm} [flags]")
	os.Exit(2)
}

// serverURL normalizes "host:port" or a full URL into a base URL.
func serverURL(server string) string {
	if !strings.HasPrefix(server, "http://") && !strings.HasPrefix(server, "https://") {
		server = "http://" + server
	}
	return strings.TrimSuffix(server, "/")
}

func scriptClient() *http.Client {
	return &http.Client{Timeout: 10 * time.Second}
}

// apiError extracts the server's {"error": ...} body, falling back to the
// raw bytes for non-JSON responses.
func apiError(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(body))
}

func cmdScriptPut(args []string) {
	fs := flag.NewFlagSet("script put", flag.ExitOnError)
	var (
		server = fs.String("server", "localhost:8080", "lakeserve address")
		name   = fs.String("name", "", "script name (required)")
		file   = fs.String("file", "-", `source path ("-" reads stdin)`)
	)
	fs.Parse(args)
	if *name == "" {
		log.Fatal("script put: -name is required")
	}
	var src []byte
	var err error
	if *file == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(*file)
	}
	if err != nil {
		log.Fatalf("script put: %v", err)
	}
	payload, err := json.Marshal(map[string]string{"name": *name, "source": string(src)})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := scriptClient().Post(serverURL(*server)+"/v1/scripts", "application/json", bytes.NewReader(payload))
	if err != nil {
		log.Fatalf("script put: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		log.Fatalf("script put: server rejected %q: %s", *name, apiError(body))
	}
	var info struct {
		Name        string   `json:"name"`
		Version     int64    `json:"version"`
		Funcs       []string `json:"funcs"`
		SourceBytes int      `json:"source_bytes"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		log.Fatalf("script put: decode response: %v", err)
	}
	fmt.Printf("stored %s v%d (%d bytes, funcs: %s)\n",
		info.Name, info.Version, info.SourceBytes, strings.Join(info.Funcs, ", "))
}

func cmdScriptLs(args []string) {
	fs := flag.NewFlagSet("script ls", flag.ExitOnError)
	server := fs.String("server", "localhost:8080", "lakeserve address")
	fs.Parse(args)
	resp, err := scriptClient().Get(serverURL(*server) + "/v1/scripts")
	if err != nil {
		log.Fatalf("script ls: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("script ls: %s", apiError(body))
	}
	var list struct {
		Scripts []struct {
			Name        string   `json:"name"`
			Version     int64    `json:"version"`
			Funcs       []string `json:"funcs"`
			SourceBytes int      `json:"source_bytes"`
		} `json:"scripts"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		log.Fatalf("script ls: decode response: %v", err)
	}
	fmt.Printf("%-24s %-8s %-8s %s\n", "name", "version", "bytes", "funcs")
	for _, s := range list.Scripts {
		fmt.Printf("%-24s %-8d %-8d %s\n", s.Name, s.Version, s.SourceBytes, strings.Join(s.Funcs, ", "))
	}
}

func cmdScriptGet(args []string) {
	fs := flag.NewFlagSet("script get", flag.ExitOnError)
	var (
		server = fs.String("server", "localhost:8080", "lakeserve address")
		name   = fs.String("name", "", "script name (required)")
	)
	fs.Parse(args)
	if *name == "" {
		log.Fatal("script get: -name is required")
	}
	resp, err := scriptClient().Get(serverURL(*server) + "/v1/scripts/" + *name)
	if err != nil {
		log.Fatalf("script get: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("script get: %s", apiError(body))
	}
	var got struct {
		Source string `json:"source"`
		Stats  []struct {
			Name  string `json:"name"`
			Calls int64  `json:"calls"`
			Steps int64  `json:"steps"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		log.Fatalf("script get: decode response: %v", err)
	}
	fmt.Println(got.Source)
	// Totals go to stderr: stdout stays the source alone, so get | put round-trips.
	fmt.Fprintf(os.Stderr, "%-24s %-12s %-14s %s\n", "fn", "calls", "steps", "steps/call")
	for _, f := range got.Stats {
		fmt.Fprintf(os.Stderr, "%-24s %-12d %-14d %.1f\n", f.Name, f.Calls, f.Steps,
			float64(f.Steps)/float64(max(f.Calls, 1)))
	}
}

func cmdScriptRm(args []string) {
	fs := flag.NewFlagSet("script rm", flag.ExitOnError)
	var (
		server = fs.String("server", "localhost:8080", "lakeserve address")
		name   = fs.String("name", "", "script name (required)")
	)
	fs.Parse(args)
	if *name == "" {
		log.Fatal("script rm: -name is required")
	}
	req, err := http.NewRequest(http.MethodDelete, serverURL(*server)+"/v1/scripts/"+*name, nil)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := scriptClient().Do(req)
	if err != nil {
		log.Fatalf("script rm: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("script rm: %s", apiError(body))
	}
	fmt.Printf("deleted %s\n", *name)
}
