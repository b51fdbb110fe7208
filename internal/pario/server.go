package pario

import "sync"

// Server is one dedicated I/O server goroutine: a rank hands completed
// write jobs (its own file, its replica, the parity) to its server and
// goes back to the
// collective protocol (checksum gathers, manifest agreement) while the
// bytes drain to disk.  Writes execute in submission order under the
// server's Disk; the first failure is remembered and later jobs are
// skipped (the epoch cannot commit anyway, and skipping keeps fault
// schedules deterministic).  Close joins the goroutine — no Server ever
// outlives its Save.
type Server struct {
	d Disk

	jobs chan writeJob
	done sync.WaitGroup

	mu  sync.Mutex
	err error
}

type writeJob struct {
	path string
	data []byte
}

// StartServer launches the I/O server goroutine for d's rank.
func StartServer(d Disk) *Server {
	s := &Server{d: d, jobs: make(chan writeJob, 4)}
	s.done.Add(1)
	go s.loop()
	return s
}

func (s *Server) loop() {
	defer s.done.Done()
	for j := range s.jobs {
		if s.Err() != nil {
			continue // drain: a failed epoch skips the remaining writes
		}
		if err := s.d.WriteFile(j.path, j.data); err != nil {
			s.mu.Lock()
			if s.err == nil {
				s.err = err
			}
			s.mu.Unlock()
		}
	}
}

// Write enqueues one whole-file write; ownership of data passes to the
// server.  It never blocks longer than the slowest in-flight write.
func (s *Server) Write(path string, data []byte) {
	s.jobs <- writeJob{path: path, data: data}
}

// Err returns the first write failure so far (nil while healthy).
func (s *Server) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close drains the queue, stops the goroutine and returns the first
// write failure.  Idempotent-unsafe: call exactly once.
func (s *Server) Close() error {
	close(s.jobs)
	s.done.Wait()
	return s.Err()
}
