/**
 * @file
 * Minimal blocking TCP plumbing for the campaign service: a
 * listener with a poll-interruptible accept, and a connection
 * wrapper speaking the service's framing — one '\n'-terminated
 * message per line, no other byte-level structure.  Everything
 * above this layer (src/serve/protocol.hh) deals in complete
 * lines; everything below is plain POSIX sockets, so the daemon
 * needs nothing the toolchain does not already ship.
 *
 * Error handling is boolean-with-message like the rest of the
 * tree: a false return carries a human-readable reason, never an
 * errno the caller has to decode.  Writes use MSG_NOSIGNAL so a
 * client that vanished mid-stream surfaces as a failed write, not
 * a SIGPIPE that kills the daemon.
 */

#ifndef SPECSEC_SERVE_NET_HH
#define SPECSEC_SERVE_NET_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace specsec::serve::net
{

/**
 * The longest frame readLine() accepts, excluding its '\n'.  The
 * largest real message, a submit of a 6912-key sweep, is under
 * 1 MB; the cap only bounds what a misbehaving peer can make the
 * reader buffer.
 */
inline constexpr std::size_t kMaxLineBytes = std::size_t{16} << 20;

/** "HOST:PORT" as used by --connect / serve --host/--port. */
struct Endpoint
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
};

/**
 * Parse "HOST:PORT" (host may be empty: ":9000" means loopback).
 * @return false with a message in @p error on a malformed spelling.
 */
bool parseEndpoint(const std::string &text, Endpoint &endpoint,
                   std::string *error = nullptr);

/**
 * One accepted or dialed stream connection with buffered
 * line-oriented reads.  Movable, not copyable; closes on
 * destruction.
 */
class Conn
{
  public:
    Conn() = default;
    explicit Conn(int fd) : fd_(fd) {}
    ~Conn() { close(); }

    Conn(Conn &&other) noexcept;
    Conn &operator=(Conn &&other) noexcept;
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /**
     * Block until one complete line arrives; @p line receives it
     * without the trailing '\n'.  @return false on EOF or a socket
     * error (including a torn connection); bytes after the last
     * newline at EOF — a truncated frame — are discarded.  Also
     * false, with frameTooLong() set, once a frame exceeds
     * kMaxLineBytes; the connection is then out of sync and should
     * be dropped.
     */
    bool readLine(std::string &line);

    /** True once readLine() refused a frame over kMaxLineBytes. */
    bool frameTooLong() const { return frameTooLong_; }

    /** Write @p line plus '\n'; false when the peer is gone. */
    bool writeLine(const std::string &line);

    /**
     * Shut both directions down without closing the fd, so a
     * thread blocked in readLine() on this connection wakes with
     * EOF (used by Server::stop to drain connection threads).
     */
    void shutdownBoth();

    void close();

  private:
    int fd_ = -1;
    std::string buffer_; ///< bytes read past the last returned line
    std::size_t scanned_ = 0; ///< prefix of buffer_ holding no '\n'
    bool frameTooLong_ = false;
};

/**
 * Dial @p endpoint.  @return an invalid Conn with a message in
 * @p error when the host does not resolve or the connect fails.
 */
Conn dial(const Endpoint &endpoint, std::string *error = nullptr);

/** Listening socket with an interruptible accept. */
class Listener
{
  public:
    Listener() = default;
    ~Listener() { close(); }
    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /**
     * Bind and listen on @p endpoint; port 0 picks an ephemeral
     * port (read it back with port()).
     */
    bool listenOn(const Endpoint &endpoint,
                  std::string *error = nullptr);

    /** The bound port (resolves port-0 binds). */
    std::uint16_t port() const { return port_; }

    /**
     * Wait up to @p timeout_ms for one connection.  @return the
     * accepted Conn, or an invalid Conn on timeout/error —
     * distinguishable because timeouts are the caller's polling
     * loop, not failures.
     */
    Conn acceptOne(int timeout_ms);

    void close();

  private:
    int fd_ = -1;
    std::uint16_t port_ = 0;
};

} // namespace specsec::serve::net

#endif // SPECSEC_SERVE_NET_HH
