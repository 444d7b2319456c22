package jobsvc

import (
	"context"
	"fmt"
	"hash/fnv"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"hdsampler/internal/history"
	"hdsampler/internal/store"
)

// historySource names one cache identity for checkpointing: the target
// key plus the trust mode (trusted and untrusted caches infer
// differently and must not adopt each other's checkpoints).
func historySource(targetKey string, trust bool) string {
	return targetKey + "|trust=" + strconv.FormatBool(trust)
}

// historyDumpPath maps a cache identity onto its checkpoint file.
func historyDumpPath(dir, source string) string {
	h := fnv.New64a()
	h.Write([]byte(source))
	return filepath.Join(dir, fmt.Sprintf("history-%016x.json", h.Sum64()))
}

// warmStartCache best-effort restores a freshly created cache from its
// checkpoint; failures only cost the warm start, never the job.
func warmStartCache(dir, source string, cache *history.Cache, lg *slog.Logger) {
	lg = lg.With("component", "jobsvc", "source", source)
	path := historyDumpPath(dir, source)
	dump, err := store.LoadHistoryFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			lg.Warn("history warm-start failed", "path", path, "error", err)
		}
		return
	}
	if dump.Source != source {
		lg.Warn("history warm-start skipped: checkpoint identity mismatch",
			"path", path, "checkpoint_source", dump.Source)
		return
	}
	//hdlint:ignore ctxflow warm-start runs during construction, before any request context exists; the timeout is its only bound
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	n, err := cache.Restore(ctx, dump.Snapshot())
	if err != nil {
		lg.Warn("history warm-start failed", "path", path, "error", err)
		return
	}
	lg.Info("warm-started history cache", "entries", n)
}

// dumpHistory checkpoints every shared cache to HistoryDir.
func (m *Manager) dumpHistory() {
	if m.cfg.HistoryDir == "" {
		return
	}
	if err := os.MkdirAll(m.cfg.HistoryDir, 0o755); err != nil {
		m.lg.Warn("history checkpoint dir", "dir", m.cfg.HistoryDir, "error", err)
		return
	}
	for _, he := range m.hostList() {
		he.mu.Lock()
		caches := make(map[string]*history.Cache) // by checkpoint identity
		for _, tg := range he.targets {
			for trust, c := range tg.caches {
				caches[historySource(tg.key, trust)] = c
			}
		}
		he.mu.Unlock()
		for source, c := range caches {
			if c.Len() == 0 {
				continue
			}
			dump := store.NewHistoryDump(source, c.Dump())
			path := historyDumpPath(m.cfg.HistoryDir, source)
			if err := store.SaveHistoryFile(path, dump); err != nil {
				m.lg.Warn("history checkpoint failed", "path", path, "error", err)
			}
		}
	}
}

// maybeDumpHistory runs dumpHistory at most once per throttle window.
func (m *Manager) maybeDumpHistory() {
	if m.cfg.HistoryDir == "" {
		return
	}
	const every = 5 * time.Second
	m.histMu.Lock()
	if time.Since(m.lastHistDump) < every {
		m.histMu.Unlock()
		return
	}
	m.lastHistDump = time.Now()
	m.histMu.Unlock()
	m.dumpHistory()
}
