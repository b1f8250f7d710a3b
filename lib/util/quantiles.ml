type summary = {
  count : int;
  min : float;
  q25 : float;
  median : float;
  q75 : float;
  q95 : float;
  max : float;
  mean : float;
  geo_mean : float;
}

let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Quantiles.quantile: empty sample";
  if p <= 0.0 then sorted.(0)
  else if p >= 1.0 then sorted.(n - 1)
  else begin
    let pos = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = int_of_float (Float.ceil pos) in
    if lo = hi then sorted.(lo)
    else begin
      let frac = pos -. float_of_int lo in
      (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
    end
  end

let summarize_array values =
  let n = Array.length values in
  if n = 0 then None
  else begin
    let sorted = Array.copy values in
    Array.sort Float.compare sorted;
    let sum = Array.fold_left ( +. ) 0.0 sorted in
    let log_sum =
      Array.fold_left (fun acc v -> acc +. Float.log (Float.max v 1e-300)) 0.0 sorted
    in
    Some
      {
        count = n;
        min = sorted.(0);
        q25 = quantile sorted 0.25;
        median = quantile sorted 0.5;
        q75 = quantile sorted 0.75;
        q95 = quantile sorted 0.95;
        max = sorted.(n - 1);
        mean = sum /. float_of_int n;
        geo_mean = Float.exp (log_sum /. float_of_int n);
      }
  end

let summarize values = summarize_array (Array.of_list values)
