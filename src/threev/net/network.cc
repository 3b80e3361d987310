#include "threev/net/network.h"

namespace threev {

Message TimerMessage(NodeId owner, uint64_t token) {
  Message m;
  m.type = MsgType::kTimer;
  m.from = owner;
  m.seq = token;
  return m;
}

void Network::ScheduleTimer(NodeId owner, Micros delay, uint64_t token) {
  ScheduleAfter(delay,
                [this, owner, token] { Send(owner, TimerMessage(owner, token)); });
}

}  // namespace threev
