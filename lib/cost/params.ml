type t = {
  cpu_tuple : float;
  io_page : float;
  page_bytes : int;
  net_latency : float;
  net_bandwidth : float;
  msg_overhead_bytes : int;
  work_mem_bytes : int;
}

let default =
  {
    cpu_tuple = 1e-5;
    io_page = 1e-3;
    page_bytes = 8192;
    net_latency = 5e-3;
    net_bandwidth = 10e6;
    msg_overhead_bytes = 200;
    work_mem_bytes = 4 * 1024 * 1024;
  }

let lan = { default with net_latency = 2e-4; net_bandwidth = 100e6 }

let wan = { default with net_latency = 5e-2; net_bandwidth = 1e6 }
