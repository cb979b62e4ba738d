/**
 * @file
 * The campaign daemon: one process owning one ResultCache, serving
 * scenario-execution batches and cache queries to any number of
 * concurrent clients over the line-delimited JSON protocol
 * (src/serve/protocol.hh).
 *
 * Each accepted connection gets its own thread; a submit expands
 * into an executeKeyBatch() on the server's worker pool with
 * results streamed back as they complete, so several clients'
 * batches interleave on the pool and every execution lands in the
 * one shared cache.  A client that disconnects mid-stream cancels
 * only its own batch (the failed write's emit callback returns
 * false); the daemon and every other connection stay healthy.
 *
 * With a --cache-file the cache is loaded at start and re-saved
 * (load-merge-save under the lock file, see persist.cc) after
 * every batch, so even a killed daemon loses at most the batch in
 * flight.
 */

#ifndef SPECSEC_SERVE_SERVER_HH
#define SPECSEC_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"
#include "serve/net.hh"
#include "serve/protocol.hh"

namespace specsec::serve
{

class Server
{
  public:
    struct Options
    {
        std::string host = "127.0.0.1";
        std::uint16_t port = 0; ///< 0 = ephemeral; read back port()
        /// Worker threads per submit batch; 0 = all cores.
        unsigned workers = 0;
        /// Optional persistent cache (load at start, save per batch).
        std::string cachePath;
    };

    explicit Server(Options options) : options_(std::move(options))
    {
    }
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind + listen + load the cache; false with a reason. */
    bool start(std::string *error = nullptr);

    /** The bound port (after start()). */
    std::uint16_t port() const { return listener_.port(); }

    /**
     * Accept-and-serve until stop() or a client's shutdown
     * message.  Blocks; run it on a dedicated thread for
     * in-process use (tests), or directly from main() for the
     * CLI daemon.
     */
    void serveForever();

    /** Signal serveForever() to drain and return. */
    void stop();

    /** Live counters (also served over the wire as stats{}). */
    StatsMsg stats() const;

    const campaign::ResultCache &cache() const { return cache_; }

    /** Connection threads not yet joined (live plus not-yet-reaped
     *  finished ones). */
    std::size_t retainedThreads() const;

  private:
    void handleConnection(std::shared_ptr<net::Conn> conn);
    void reapFinishedConnections();
    bool handleSubmit(net::Conn &conn, const SubmitMsg &submit);
    void saveCache();

    Options options_;
    net::Listener listener_;
    campaign::ResultCache cache_;
    std::string fingerprint_;
    std::atomic<bool> stopping_{false};

    /// Guards conns_/threads_/finished_/counters.
    mutable std::mutex mutex_;
    std::vector<std::weak_ptr<net::Conn>> conns_;
    std::vector<std::thread> threads_;
    /// Connection threads that returned and await a join.
    std::vector<std::thread::id> finished_;
    std::size_t connections_ = 0;
    std::size_t requests_ = 0;
    std::size_t executed_ = 0;
    std::size_t cacheHits_ = 0;
    std::size_t modelDecided_ = 0;
    std::size_t modelUndecided_ = 0;
    std::size_t modelDisagreements_ = 0;
};

} // namespace specsec::serve

#endif // SPECSEC_SERVE_SERVER_HH
